(** Packed architectural trace: capture the emulator's event stream
    once into flat Bigarray buffers, then replay it any number of times
    without re-emulating and without per-event heap allocation.

    Each event packs into one int32 main word ([(addr lsl 3) lor tag])
    plus 0-2 native-int operand words; [next] addresses are re-derived
    from the tag on replay, so ~95% of real-workload events (plain
    fall-throughs) cost 4 bytes. {!replay} is the one decoder: it hands
    each event to a callback as unboxed ints, and {!Image.of_trace},
    the profilers and {!iter} all read the trace through it. A trace is
    immutable after capture and safe to share across domains. Traces
    marshal directly (Bigarrays serialise their contents), which is how
    {!Dmp_experiments.Disk_cache} persists them. *)

open Dmp_ir

type t

val capture : ?max_insts:int -> Linked.t -> input:int array -> t
(** Run a fresh emulator to completion (or [max_insts] retired
    instructions) and pack its event stream. Raises [Invalid_argument]
    if the program's addresses exceed the int32 packing range (2^28 —
    unreachable for any linkable program). *)

val length : t -> int
(** Number of captured events (= retired instructions). *)

val complete : t -> bool
(** Whether the program halted within the capture cap. A replay whose
    [max_insts] exceeds [length] of an incomplete trace would end
    early; capture and replay must use the same cap. *)

val byte_size : t -> int
(** Allocated bytes of the packed buffers (the Bigarray payloads live
    outside the OCaml heap, so generic heap-size estimates miss them) —
    the size {!Dmp_exec.Mem_cache} accounts for a cached trace. *)

val replay :
  ?max_insts:int -> t ->
  (addr:int -> tag:int -> p1:int -> p2:int -> next:int -> unit) -> unit
(** Decode the first [max_insts] events (default: all) in order and
    hand each to the callback unboxed: [tag] is one of the
    [Event.tag_*] constants, [p1] and [p2] are the operands of
    {!Event.box}, and an operand the tag does not define is 0.
    Allocates nothing per event. *)

val iter : ?max_insts:int -> t -> (Event.t -> unit) -> unit
(** {!replay}, boxing every event (allocates one event per step; for
    tests, the oracle and debugging). *)
