(** Edge/branch profiler.

    Replays the packed trace of a profiling input set
    ({!Dmp_exec.Trace.replay}) and records, per static conditional
    branch: execution count, taken count, and mispredictions under a
    fresh {!Dmp_predictor.Perceptron}, the predictor every simulated
    machine uses, so the profile counts the mispredictions a machine
    incurs on the same stream. Block execution counts give the edge
    profile the paper's Alg-freq consumes. *)

open Dmp_ir
open Dmp_exec

type branch = {
  mutable executed : int;
  mutable taken : int;
  mutable mispredicted : int;
}

type t

val collect_trace : ?max_insts:int -> Linked.t -> Trace.t -> t
(** Profile by replaying a packed trace of the same linked program, up
    to [max_insts] events. The trace must cover [max_insts] events
    (captured with the same or a larger cap, or {!Trace.complete}) for
    the profile to be that of the capped run.
    @raise Invalid_argument if an event continues past the end of the
    program (a trace of another program). *)

val collect : ?max_insts:int -> Linked.t -> input:int array -> t
(** {!collect_trace} over a fresh {!Trace.capture} of [input] with the
    same cap. *)

val retired : t -> int
val branch : t -> addr:int -> branch option
val executed : t -> addr:int -> int

val taken_prob : t -> addr:int -> float
(** 0.5 for branches never seen during profiling. *)

val misp_rate : t -> addr:int -> float
val mispredictions : t -> addr:int -> int
val block_count : t -> func:int -> block:int -> int

val edge_prob : t -> func:int -> block:int -> dir:Dmp_cfg.Cfg.dir -> float
(** Profiled probability of leaving [block] in direction [dir]. *)

val total_branch_executions : t -> int
val total_mispredictions : t -> int

val mpki : t -> float
(** Mispredictions per kilo-instruction under the profiling predictor. *)

val branch_addrs : t -> int list

type raw
(** Marshal-friendly image of a profile: all collected counters, but not
    the [Linked.t] the profile was collected against (programs contain
    structure that must not be serialised and is cheap to rebuild).
    Two profiles with equal counters have byte-identical
    [Marshal]-serialised raws. *)

val to_raw : t -> raw
val of_raw : Linked.t -> raw -> t

val make_raw :
  branches:(int * branch) list -> block_counts:int array array ->
  retired:int -> raw
(** Build a raw image from explicit counters — the construction path
    for profiles that were not collected from an event stream (e.g.
    reconstructed from sparse hardware samples by
    [Dmp_sampling.Reconstruct]). Branches are copied and sorted by
    address; [block_counts] must be shaped like the linked program the
    raw will be materialised against ([of_raw] does not check). A raw
    built from the counters of an existing profile serialises
    byte-identically to that profile's {!to_raw}. *)
