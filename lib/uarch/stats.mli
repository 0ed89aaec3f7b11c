(** Simulation statistics. All counters are cumulative over one run. *)

type t = {
  mutable cycles : int;
  mutable retired : int;  (** architectural instructions (trace length) *)
  mutable cond_branches : int;
  mutable mispredictions : int;
  mutable flushes : int;  (** pipeline flushes actually taken *)
  mutable low_confidence : int;
  mutable low_confidence_mispredicted : int;
  mutable dpred_entries : int;
  mutable dpred_hammock_entries : int;
  mutable dpred_loop_entries : int;
  mutable dpred_merges : int;
      (** dpred episodes that reached the CFM point on both paths *)
  mutable dpred_resolved_before_merge : int;
  mutable dpred_flushes_avoided : int;
      (** mispredictions whose flush dynamic predication removed *)
  mutable dpred_useless_entries : int;
      (** dpred entries whose branch was actually correctly predicted *)
  mutable select_uops : int;
  mutable wrong_side_insts : int;
      (** wrong-path instructions fetched (dpred wrong side + recovery) *)
  mutable loop_early_exits : int;
  mutable loop_late_exits : int;
  mutable loop_no_exits : int;
  mutable loop_correct : int;
  mutable loop_extra_insts : int;
  mutable dpred_cycles : int;
  mutable recovery_cycles : int;
  mutable rob_full_cycles : int;
  mutable mpp_lookups : int;
      (** low-confidence diverge decisions that consulted the dynamic
          merge-point predictor (0 under the static provider) *)
  mutable mpp_predicted : int;
      (** lookups the predictor answered, i.e. dpred episodes entered
          on a {e predicted} merge point *)
  mutable mpp_warmup_retired : int;
      (** retired-instruction count at the predictor's first answered
          lookup — the warm-up distance (0 = never answered) *)
}

val create : unit -> t

val fields : t -> (string * int) list
(** Every counter as a (name, value) pair, in declaration order — the
    differential oracle diffs two stats structs field-by-field with it. *)

val merge : t -> t -> t
(** Fieldwise sum, as a fresh record. [merge] is associative and
    commutative with {!create} as identity (plain integer addition per
    counter), so per-segment statistics of a checkpointed run fold into
    the whole-run statistics in any grouping. *)

val diff : t -> t -> t
(** Fieldwise difference [a - b], as a fresh record: the per-segment
    delta between two cumulative snapshots. [merge b (diff a b) = a]. *)

val copy : t -> t

val equal : t -> t -> bool
(** Fieldwise equality of every counter — what "byte-identical
    statistics" means throughout the checkpoint equivalence tests. *)

val scale_round : float -> t -> t
(** Every counter multiplied by the factor and rounded to nearest, as a
    fresh record — extrapolates a sampled window to its full segment. *)

val to_array : t -> int array
(** The counter values in declaration order ({!fields} without the
    names) — the layout {!load} expects and checkpoints store. *)

val load : t -> int array -> unit
(** Overwrite every counter from a {!to_array} snapshot.
    @raise Invalid_argument on a length mismatch. *)

val ipc : t -> float
val mpki : t -> float
val flushes_per_ki : t -> float

val confidence_pvn : t -> float
(** Fraction of low-confidence estimates that were actual
    mispredictions — the paper's Acc_Conf / PVN. *)

val pp : t Fmt.t
