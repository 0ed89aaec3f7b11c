(** 2D-profiling: detect input-dependent branches from a single
    profiling run by measuring how each branch's misprediction rate
    varies across time slices (program phases). Section 8.3 of the
    paper proposes this as an improvement to diverge-branch selection:
    branches that are easy to predict in every phase need not be marked
    at all. *)

open Dmp_ir

type slice = { executed : int; mispredicted : int }

type branch_phases = {
  addr : int;
  slices : slice array;
  total_executed : int;
  total_mispredicted : int;
}

type t

val collect :
  ?num_slices:int -> ?max_insts:int -> Linked.t -> input:int array -> t
(** Captures the run once ({!Dmp_exec.Trace.capture}); its length sizes
    the slices, and a replay of it under a fresh perceptron fills
    them. *)

val branch : t -> int -> branch_phases option
val misp_rate : branch_phases -> float
val phase_rates : branch_phases -> float list

val phase_std_dev : branch_phases -> float
(** The 2D-profiling metric: standard deviation of the per-phase
    misprediction rate. High values indicate phase- (and likely input-)
    dependent behaviour. *)

val is_input_dependent : ?threshold:float -> t -> int -> bool
val is_always_easy : ?rate:float -> t -> int -> bool
val fold : (branch_phases -> 'a -> 'a) -> t -> 'a -> 'a
