(** DMP binary annotations: the list of diverge branches and their CFM
    points the compiler attaches to the binary and the ISA conveys to
    the hardware (Section 2.2). *)

type branch_kind =
  | Simple_hammock
  | Nested_hammock
  | Frequently_hammock
  | Loop_branch

type cfm = {
  cfm_addr : int;  (** address of the first instruction of the CFM block *)
  exact : bool;  (** exact (IPOSDOM) vs approximate (Section 3.1) *)
  merge_prob : float;
  select_uops : int;
      (** select-µops to insert when the paths merge at this point *)
}

type loop_info = {
  body_insts : int;
  exit_target_addr : int;
  avg_iterations : float;
  loop_select_uops : int;
}

type diverge = {
  branch_addr : int;
  kind : branch_kind;
  cfms : cfm list;  (** at most [Params.max_cfm]; may be empty for
      return-CFM or CFM-less (dual-path) diverge branches *)
  return_cfm : bool;
      (** dpred-mode ends when both paths execute a return (Section 3.5) *)
  always_predicate : bool;
      (** short hammock: predicate regardless of confidence (Section 3.4) *)
  loop : loop_info option;
}

type t

val branch_kind_to_string : branch_kind -> string
val empty : unit -> t

val add : t -> diverge -> unit
(** @raise Invalid_argument if the branch is already marked. *)

val replace : t -> diverge -> unit
val find : t -> int -> diverge option
val is_diverge : t -> int -> bool
val count : t -> int
val fold : (diverge -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (diverge -> unit) -> t -> unit
val diverge_addrs : t -> int list

val average_cfm_count : t -> float
(** Average number of CFM points per non-loop diverge branch (Table 2's
    "Avg. # CFM"). *)

(** {2 Compiled form}

    The cycle simulator consults the annotation once per fetched
    conditional branch and tests "is this address a CFM of the current
    diverge branch" once per fetch slot in dpred-mode. {!compile}
    resolves both queries at annotation-load time into flat structures
    so neither appears as a hash lookup or a list scan on the per-slot
    path. *)

type compiled = {
  c_diverge : diverge;  (** the source diverge branch *)
  c_cfm_addrs : int array;
      (** hammock CFM addresses, sorted ascending, duplicates resolved
          to the last declaration *)
  c_cfm_selects : int array;  (** select-µop counts, parallel to
      [c_cfm_addrs] *)
  c_ret_selects : int;
      (** select-µop count of the return CFM (the negative-address
          [cfm] entry), or a default of 4 when none is declared *)
}

val compile : size:int -> t -> compiled option array
(** Dense per-address table with one slot per instruction address in
    [0, size): slot [a] holds the compiled diverge branch at [a], if
    any. Diverge branches outside the range are dropped (they can never
    be fetched). The result is immutable by convention and safe to
    share across domains. *)

module Compiled : sig
  val fingerprint : compiled option array -> string
  (** Hex digest of a canonical, integer-only rendering of exactly the
      fields the simulator reads from the table (slot index, branch
      kind, always/return flags, the resolved CFM address/select
      arrays, the return-CFM select count, loop geometry). Two
      annotations that compile to behaviourally identical tables — even
      when built in different orders or carrying different selection
      metadata ([merge_prob], [exact], [avg_iterations]) — fingerprint
      identically, so the fingerprint is a sound key for deduplicating
      simulations of the same (benchmark, configuration). *)

  val equal : compiled option array -> compiled option array -> bool
  (** Behavioural equality: {!fingerprint} agreement. *)
end

val is_cfm : compiled -> int -> bool
(** Membership in [c_cfm_addrs] (linear scan of the sorted array; CFM
    lists have at most [Params.max_cfm] entries). *)

val cfm_selects : compiled -> int -> int
(** Select-µop count for the given CFM address, 0 when the address is
    not a CFM of this branch. *)

val to_string : t -> string
(** One line per diverge branch; the format {!of_string} parses — the
    "list attached to the binary" of Section 6.1. *)

val of_string : string -> (t, string) result

val pp_diverge : diverge Fmt.t
val pp : t Fmt.t
