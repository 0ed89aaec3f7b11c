(** Pre-decoded simulation image: a packed {!Trace} unpacked once into
    flat structure-of-arrays Bigarray buffers.

    A trace replay decodes each packed int32 word per event per replay;
    the experiment sweep replays the same traces hundreds of times, so
    decoding once and replaying by plain array indexing removes the
    whole per-event unpacking cost from the simulator's hot loop. The
    event's [addr] also doubles as the index into any dense per-address
    table (one slot per instruction of the linked program, e.g.
    [Dmp_uarch.Static_info]), which is how the simulator's fetch loop
    avoids per-slot lookups.

    An image holds 21 bytes per event: the three address columns
    ([addr], [next], [p2]) are int32, which the trace's 2^28 address
    bound allows; [p1] stays a native int because memory locations are
    arbitrary ints. An image is immutable after {!of_trace} and safe to
    share across domains; each consumer keeps its own position index.
    The buffer fields are exposed read-only (private record) so hot
    loops can bind them locally and index with
    [Bigarray.Array1.unsafe_get] after validating bounds once against
    {!length} / {!max_addr}. *)

type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type addr_buf =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type tag_buf =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  addr : addr_buf;  (** instruction address of event [i] *)
  next : addr_buf;  (** architectural successor address ([Event.halted_next]
      for the final event of a halted program) *)
  tag : tag_buf;  (** the event's [Event.tag_*] constant *)
  p1 : int_buf;  (** branch target / memory location / callee entry /
      return-to address; 0 when the tag defines no first operand *)
  p2 : addr_buf;  (** conditional-branch fall-through address; 0 otherwise *)
  len : int;
  complete : bool;
  max_addr : int;
}

val of_trace : Trace.t -> t
(** Decode every event of the trace. One sequential pass of
    {!Trace.replay}; the result holds 21 bytes per event. *)

val length : t -> int
(** Number of events (= retired instructions of the capture). *)

val complete : t -> bool
(** Whether the captured program halted within the capture cap (same
    contract as {!Trace.complete}). *)

val max_addr : t -> int
(** Largest instruction address appearing in the image, or -1 when
    empty. Consumers indexing a per-address table validate its size
    against this once, then index unchecked. *)

val byte_size : t -> int
(** Allocated bytes of the decoded buffers (21 B per event; the
    Bigarray payloads live outside the OCaml heap) — the size
    {!Dmp_exec.Mem_cache} accounts for a cached image. *)

val event : t -> int -> Event.t
(** Decode event [i] into a boxed {!Event.t} (allocates; for tests and
    debugging). @raise Invalid_argument when out of bounds. *)
