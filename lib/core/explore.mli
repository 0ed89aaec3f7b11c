(** Working-list path exploration after one side of a branch
    (Algorithms 1 and 2 of the paper share this engine).

    Paths start at a successor block of the diverge-branch candidate and
    stop at the branch's IPOSDOM, at a return, or when they exceed
    [max_instr] / [max_cbr]. In profile mode ([structural = false]) only
    directions with profiled probability at least [min_exec_prob] are
    followed and every visited block accumulates its reach probability;
    in structural mode every direction is followed and probabilities are
    meaningless (Alg-exact only needs path lengths).

    Results are a pure function of the arguments: the walk keeps no
    state between calls and reads only the context's precomputed
    per-block tables ([Context.fn_ctx]). A visit allocates nothing; the
    [Int_set]s of the result are built once, when the walk ends. *)

module Int_set : Set.S with type elt = int

type reach = {
  mutable prob : float;  (** probability this side reaches the block *)
  mutable longest : int;  (** max instructions on any path before it *)
  mutable weighted_sum : float;  (** Σ prob(path) · insts(path) *)
  mutable best_path_prob : float;
  mutable best_path_insts : int;  (** insts on the most frequent path *)
  mutable blocks : Int_set.t;  (** blocks on paths before it *)
  mutable defs : Int_set.t;  (** registers written before it *)
  mutable max_cbr : int;
}

type result = {
  reaches : (int, reach) Hashtbl.t;
  ret : reach option;  (** aggregate over paths ending at a return *)
  truncated : bool;  (** a path exceeded [max_instr]/[max_cbr] *)
  capped : bool;  (** the [max_paths] engineering bound was hit *)
}

val explore :
  Context.t -> func:int -> start:int -> stop_blocks:Int_set.t ->
  structural:bool -> result
(** Paths stop (and record) at any block of [stop_blocks]. Alg-exact
    passes the singleton IPOSDOM; Alg-freq first discovers candidates
    stopping at the IPOSDOM, then re-explores stopping at every
    candidate so that reach probabilities are first-arrival ("first
    time merging", footnote 3 of the paper). *)

val structural_within_bounds :
  Context.t -> func:int -> start:int -> stop_blocks:Int_set.t ->
  result option
(** The structural walk of {!explore}, for callers that discard a side
    once it overflows: [None] exactly when [explore ~structural:true]
    would be truncated or capped, and otherwise its result. The walk
    stops at the first path over [max_instr]/[max_cbr] or at the
    [max_paths] cap. *)

val reach : result -> int -> reach option

val avg_insts : reach -> float
(** Edge-profile expected instructions before the block, conditional on
    reaching it (the paper's method 3). *)
