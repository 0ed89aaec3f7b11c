(** Machine configuration, following Table 1 of the paper. [baseline]
    is the aggressive 8-wide processor; [dmp] is the same machine with
    DMP support enabled. *)

type merge_provider =
  | Static  (** diverge decisions consult the compiled annotation table *)
  | Dynamic of Dmp_mpp.Mpt.config
      (** diverge decisions consult an online Merge Point Table trained
          from retired control flow (TR-HPS-2020-001); any compiled
          annotation is ignored *)

type t = {
  fetch_width : int;
  max_branches_per_cycle : int;
  front_depth : int;
  rob_size : int;
  retire_width : int;
  int_latency : int;
  mul_latency : int;
  div_latency : int;
  l1_log2_sets : int;
  l1_ways : int;
  l1_hit_latency : int;
  l2_log2_sets : int;
  l2_ways : int;
  l2_hit_latency : int;
  line_bytes : int;
  memory_latency : int;
  store_latency : int;
  conf_log2_entries : int;
  conf_history_length : int;
  conf_threshold : int;
  dmp_enabled : bool;
  select_uop_latency : int;
  max_walk_insts : int;
  max_loop_extra_iterations : int;
  merge_provider : merge_provider;
}

val baseline : t
val dmp : t

val dmp_dynamic : Dmp_mpp.Mpt.config -> t
(** The DMP machine with the static annotation table replaced by a
    dynamic merge-point predictor of the given geometry. *)

val min_misp_penalty : t -> int
(** Front-end depth plus redirect plus execute latency (25 cycles with
    the default configuration, as in Table 1). *)

val describe_table1 : t -> (string * string) list
(** (section, description) rows mirroring Table 1. *)
