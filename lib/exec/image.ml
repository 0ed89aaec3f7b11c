(* Pre-decoded simulation image: a packed [Trace.t] unpacked once into
   flat structure-of-arrays buffers, so every later replay of the same
   trace reads plain per-event arrays instead of re-splitting int32
   words and re-deriving fall-through addresses.

   A packed trace optimises for space (one int32 word per fall-through
   event); replaying it pays a decode per event per replay. The
   experiment sweep replays the same 17 traces hundreds of times, so
   the image trades memory (~33 B per event, still bounded by the
   trace cap) for a branch-free hot path: per-event [addr], [next],
   [tag], and operands are one array read each, and [addr] doubles as
   the index into any dense per-address table such as
   [Dmp_uarch.Static_info] (which stores one record per instruction
   address of the linked program).

   Buffers are immutable after [of_trace] and safe to share across
   domains; consumers keep their own position index. Operand slots an
   event does not define are 0 — unlike a {!Trace.cursor}, whose
   operand fields keep their previous values, so consumers must (and
   the simulator does) read operands only for tags that define them. *)

type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type tag_buf =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  addr : int_buf;  (* instruction address of event i *)
  next : int_buf;  (* architectural successor address *)
  tag : tag_buf;  (* Trace.tag_* of event i *)
  p1 : int_buf;  (* target / location / callee entry / return-to; else 0 *)
  p2 : int_buf;  (* branch fall-through address; else 0 *)
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

let create_tag n =
  Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

let of_trace trace =
  let n = Trace.length trace in
  let addr = create_int n
  and next = create_int n
  and tag = create_tag n
  and p1 = create_int n
  and p2 = create_int n in
  let c = Trace.cursor trace in
  let max_a = ref (-1) in
  for i = 0 to n - 1 do
    ignore (Trace.advance c : bool);
    let a = Trace.addr c and tg = Trace.tag c in
    if a > !max_a then max_a := a;
    Bigarray.Array1.unsafe_set addr i a;
    Bigarray.Array1.unsafe_set next i (Trace.next_addr c);
    Bigarray.Array1.unsafe_set tag i tg;
    (* Only store operands the tag defines; a cursor's operand fields
       are stale for later events, an image's are zero. *)
    if tg = Trace.tag_fall then begin
      Bigarray.Array1.unsafe_set p1 i 0;
      Bigarray.Array1.unsafe_set p2 i 0
    end
    else begin
      Bigarray.Array1.unsafe_set p1 i (Trace.p1 c);
      Bigarray.Array1.unsafe_set p2 i
        (if Trace.is_cond_branch c then Trace.p2 c else 0)
    end
  done;
  { addr; next; tag; p1; p2; len = n; complete = Trace.complete trace;
    max_addr = !max_a }

(* ---------- decoding (tests, debugging) ---------- *)

let event t i =
  if i < 0 || i >= t.len then invalid_arg "Image.event: index out of bounds";
  let a = t.addr.{i} and nx = t.next.{i} in
  let p1 = t.p1.{i} and p2 = t.p2.{i} in
  let kind =
    let tg = t.tag.{i} in
    if tg = Trace.tag_fall || tg = Trace.tag_jump then Event.Plain
    else if tg = Trace.tag_branch_taken then
      Event.Branch { taken = true; target = p1; fall = p2 }
    else if tg = Trace.tag_branch_not_taken then
      Event.Branch { taken = false; target = p1; fall = p2 }
    else if tg = Trace.tag_load then Event.Mem { is_load = true; location = p1 }
    else if tg = Trace.tag_store then
      Event.Mem { is_load = false; location = p1 }
    else if tg = Trace.tag_call then Event.Call { callee_entry = p1 }
    else Event.Return { return_to = p1 }
  in
  { Event.addr = a; kind; next = nx }
