(** Architectural emulator producing a streaming dynamic-instruction
    trace. {!Trace.capture} packs its event stream, which the profilers
    replay and {!Image} decodes for the cycle-level simulator.

    {!create} pre-decodes the linked program into one flat entry per
    address, with branch, jump and call targets resolved, and
    {!advance} writes each retired instruction's event into the
    machine's {!current} record in the unboxed form of
    {!Event.tag_fall} and its siblings, so stepping allocates nothing.
    {!step} and {!iter} box an {!Event.t} per instruction. *)

open Dmp_ir

type t

val create : Linked.t -> input:int array -> t
(** Fresh machine at the entry of main. [input] is the value stream
    consumed by [Read] instructions; reads past the end yield 0. *)

type current = private {
  mutable addr : int;
  mutable tag : int;  (** one of the [Event.tag_*] constants *)
  mutable p1 : int;
  mutable p2 : int;
  mutable next : int;
}
(** The last retired instruction's event, unboxed as {!Event.box}
    takes it: operands the tag does not define hold stale values. *)

val advance : t -> bool
(** Retire one instruction into {!current}; [false] once halted. A
    program halts on [Halt] or when main returns with an empty call
    stack. @raise Invalid_argument if the pc leaves the program. *)

val current : t -> current
(** The machine's event record, overwritten by every {!advance}. *)

val step : t -> Event.t option
(** {!advance}, boxing the event; [None] once halted. *)

val run : ?max_insts:int -> t -> int
(** Run to completion (or [max_insts]); returns retired count. *)

val iter : ?max_insts:int -> t -> (Event.t -> unit) -> unit
val halted : t -> bool
val retired : t -> int
val pc : t -> int
val output : t -> int list
val reg_get : t -> Reg.t -> int
val mem_load : t -> int -> int

val registers : t -> int array
(** Copy of the architectural register file (indexed by register
    number). *)

val memory_bindings : t -> (int * int) list
(** Every non-zero data-memory binding as [(location, value)] pairs
    sorted by location — the canonical final-memory image used by the
    transform-equivalence oracle. *)
