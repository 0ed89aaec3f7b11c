(** Merge Point Table: a hardware-style dynamic merge-point predictor
    trained online from retired control flow, after the Dynamic Merge
    Point Prediction scheme of Pruett & Patt (TR-HPS-2020-001).

    Every retired conditional branch opens a {e tracker} that records
    the PCs retiring after it — but only those at the branch's own call
    depth (calls push, returns pop; a return past the branch's frame
    ends the tracker), so a recorded PC is always intraprocedurally
    downstream of the branch. A tracker closes when its window fills or
    its frame returns, delivering the per-direction path into the
    branch's set-associative table entry. Once both directions have
    delivered a path, the candidate merge point is the earliest PC of
    the newly delivered path that also appears on the other direction's
    path; a candidate that re-confirms the stored merge point promotes
    its confidence, a conflicting candidate decays it and replaces the
    merge point once confidence is exhausted. {!predict} answers only
    from entries at or above the confidence threshold.

    All operations are deterministic: the same observation sequence
    yields the same table, exports and predictions. *)

type config = {
  log2_sets : int;
  ways : int;
  window : int;  (** retired events tracked past a branch before closing *)
  max_conf : int;  (** confidence saturation *)
  conf_threshold : int;  (** minimum confidence for {!predict} to answer *)
  select_uops : int;
      (** select-µop cost charged when a predicted merge point is
          reached — the predictor has no dataflow view, so a fixed cost
          stands in for the compiler's per-CFM select count *)
}

val default : config
(** 128 sets x 4 ways, 32-event window — the main evaluation point. *)

val small : config
(** 16 sets x 2 ways, 16-event window — the constrained design point
    for the table-size sensitivity axis. *)

type t

val create : config -> t
val config : t -> config

val observe : t -> addr:int -> unit
(** A retired non-control event at [addr]. *)

val observe_branch : t -> addr:int -> taken:bool -> unit
(** A retired conditional branch: recorded into open trackers, then a
    new tracker opens for it (evicting the oldest when all tracker
    slots are busy). *)

val observe_call : t -> addr:int -> unit
val observe_ret : t -> unit

val predict : t -> addr:int -> int option
(** The predicted merge-point address for a diverge branch at [addr],
    if its entry's confidence has reached the threshold. *)

val predictions : t -> (int * int * int) list
(** Every (branch, merge, confidence) currently tabled with a merge
    candidate — including below-threshold entries — sorted by branch
    address. The invariant checker validates each against the CFG. *)

val export : t -> int array
(** Full state: geometry header, every entry with both direction
    paths, and the queued trackers in age order, including a delivered
    one that still holds its slot behind an older open one —
    {!import} restores it exactly ({!export} of the restored table is
    equal, and the restored table trains identically). *)

val import : t -> int array -> unit
(** @raise Invalid_argument when the snapshot's geometry does not match
    [config t] or the shape is inconsistent. *)
