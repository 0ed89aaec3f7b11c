(** Analysis context shared by all selection algorithms: per-function
    CFG, dominators, post-dominators, natural loops, and call-expanded
    block weights, together with the edge/branch profile. *)

open Dmp_ir
open Dmp_cfg
open Dmp_profile

module Int_set : Set.S with type elt = int

type fn_ctx = {
  index : int;
  cfg : Cfg.t;
  dom : Dom.t;
  postdom : Postdom.t;
  loops : Loops.t;
  live : Live.t;
  block_weight : int array;
  block_cbr : int array;
  def_masks : int array;
      (** registers written by each block, callees expanded, as a
          register mask (see {!defs_of_mask}; the sets behind
          {!block_defs}) *)
  terms : int Term.t array;  (** each block's terminator *)
  succ_probs : (int * float) list array;
      (** each block's successors in {!Cfg.successors} order, paired with
          the profiled edge probability ({!Profile.edge_prob}) *)
}

type t = {
  linked : Linked.t;
  profile : Profile.t;
  params : Params.t;
  fns : fn_ctx array;
}

val defs_of_mask : int -> Int_set.t
(** The registers of a register mask. Register [r] is bit [r - 1]:
    register 0 is never a def, so every def fits in one int. *)

val create : ?params:Params.t -> Linked.t -> Profile.t -> t
val fn : t -> int -> fn_ctx
val num_fns : t -> int

val branch_addr : t -> func:int -> block:int -> int
(** Address of the terminator of [block]. *)

val branch_addr' : Linked.t -> func:int -> block:int -> int
(** Same, without an analysis context. *)

val block_start_addr : t -> func:int -> block:int -> int

val block_defs : t -> func:int -> block:int -> int list
(** Registers written by the block, as sorted register numbers; used to
    count select-µops. A call counts as writing every register written
    by any function reachable from its callee in the call graph
    (conservative, and finite under recursion). *)

val region_defs : t -> func:int -> int list -> int list
(** Sorted union of {!block_defs} over the given blocks. *)

val select_count : t -> func:int -> cfm_block:int -> int list -> int
(** Select-µops for paths writing the given registers and merging at
    [cfm_block]: only registers live at the CFM point need one. *)

val ret_select_count : t -> int list -> int
(** Select-µop count for a return CFM (continuation unknown at compile
    time): registers below the scratch range are assumed live. *)
