(** One retired dynamic instruction of the architectural trace. *)

type kind =
  | Branch of { taken : bool; target : int; fall : int }
      (** conditional branch with its resolved direction and both
          static target addresses *)
  | Mem of { is_load : bool; location : int }
  | Call of { callee_entry : int }
  | Return of { return_to : int }
  | Plain

type t = { addr : int; kind : kind; next : int }

val halted_next : int
(** [next] value of the final event of a program. *)

val is_branch : t -> bool
val pp : t Fmt.t

(** {2 Unboxed form}

    The emulator, the packed trace and the decoded image describe an
    event without allocating as [(addr, tag, p1, p2, next)]: one of the
    tags below, a first operand [p1] (branch target, memory location,
    callee entry, or return-to address; for a jump, its [next]) and a
    second operand [p2] (a conditional branch's fall-through address).
    An operand the tag does not define is meaningless. *)

val tag_fall : int
(** plain, [next = addr + 1]; no operands *)

val tag_jump : int
(** plain with an explicit [next] in [p1] (a halt carries
    {!halted_next}) *)

val tag_branch_taken : int
val tag_branch_not_taken : int
val tag_load : int
val tag_store : int

val tag_call : int
(** [p1] is the callee entry, which is [next] *)

val tag_ret : int
(** [p1] is the return-to address, which is [next] ({!halted_next} when
    main returns) *)

val box : addr:int -> tag:int -> p1:int -> p2:int -> next:int -> t
(** The boxed event of an unboxed one (allocates; for tests, the
    oracle and debugging). *)
