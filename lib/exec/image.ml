(* Pre-decoded simulation image: a packed [Trace.t] unpacked once into
   flat structure-of-arrays buffers, so every later replay of the same
   trace reads plain per-event arrays instead of re-splitting int32
   words and re-deriving fall-through addresses.

   A packed trace optimises for space (one int32 word per fall-through
   event); replaying it pays a decode per event per replay. The
   experiment sweep replays the same 17 traces hundreds of times, so
   the image trades memory (21 B per event, still bounded by the
   trace cap) for a branch-free hot path: per-event [addr], [next],
   [tag], and operands are one array read each, and [addr] doubles as
   the index into any dense per-address table such as
   [Dmp_uarch.Static_info] (which stores one record per instruction
   address of the linked program).

   The three address columns are int32: the trace already bounds
   instruction addresses to 2^28, and [next] is an address or -1. The
   memory-location operand [p1] stays a native int, since locations are
   arbitrary ints. Buffers are immutable after [of_trace] and safe to
   share across domains; consumers keep their own position index.
   Operand slots an event does not define are 0. *)

type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type addr_buf =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type tag_buf =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  addr : addr_buf;  (* instruction address of event i *)
  next : addr_buf;  (* architectural successor address *)
  tag : tag_buf;  (* Event.tag_* of event i *)
  p1 : int_buf;  (* target / location / callee entry / return-to; else 0 *)
  p2 : addr_buf;  (* branch fall-through address; else 0 *)
  len : int;
  complete : bool;
  max_addr : int;  (* largest [addr]; -1 when the image is empty *)
}

let length t = t.len
let complete t = t.complete
let max_addr t = t.max_addr

let byte_size t =
  Bigarray.Array1.size_in_bytes t.addr + Bigarray.Array1.size_in_bytes t.next
  + Bigarray.Array1.size_in_bytes t.tag
  + Bigarray.Array1.size_in_bytes t.p1
  + Bigarray.Array1.size_in_bytes t.p2

let create_int n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let create_addr n = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

let create_tag n =
  Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

let of_trace trace =
  let n = Trace.length trace in
  let addr = create_addr n
  and next = create_addr n
  and tag = create_tag n
  and p1 = create_int n
  and p2 = create_addr n in
  let i = ref 0 and max_a = ref (-1) in
  Trace.replay trace (fun ~addr:a ~tag:tg ~p1:x ~p2:y ~next:nx ->
      let k = !i in
      if a > !max_a then max_a := a;
      Bigarray.Array1.unsafe_set addr k (Int32.of_int a);
      Bigarray.Array1.unsafe_set next k (Int32.of_int nx);
      Bigarray.Array1.unsafe_set tag k tg;
      Bigarray.Array1.unsafe_set p1 k x;
      Bigarray.Array1.unsafe_set p2 k (Int32.of_int y);
      i := k + 1);
  { addr; next; tag; p1; p2; len = n; complete = Trace.complete trace;
    max_addr = !max_a }

(* ---------- decoding (tests, debugging) ---------- *)

let event t i =
  if i < 0 || i >= t.len then invalid_arg "Image.event: index out of bounds";
  Event.box ~addr:(Int32.to_int t.addr.{i}) ~tag:t.tag.{i} ~p1:t.p1.{i}
    ~p2:(Int32.to_int t.p2.{i}) ~next:(Int32.to_int t.next.{i})
