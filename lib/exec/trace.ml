(* Packed architectural trace: the emulator's event stream captured
   once into flat Bigarray buffers so later consumers replay it without
   re-emulating and without allocating one boxed Event.t per retired
   instruction.

   Encoding. Each event contributes one word to [main] and zero, one or
   two operand words to [aux]:

     main word  =  (addr lsl 3) lor tag          (int32)
     aux words  =  per-tag operands, in stream order

   with the tags of [Event.tag_*]. [next] is never stored when it is
   derivable: plain fall-through and memory events continue at
   [addr + 1]; taken branches continue at their target, not-taken at
   their fall address; calls continue at the callee entry and returns
   at the return-to address (the final halting return carries -1,
   which is exactly [Event.halted_next]). Only jumps — Plain events
   whose [next] is not [addr + 1], including the Halt terminator —
   store [next] explicitly. On the real workloads ~95% of events are
   plain fall-throughs, so the packed form costs ~4-8 bytes per event
   against the 40+ bytes of a boxed event list.

   The main word is an int32, which bounds instruction addresses to
   2^28; linked programs are many orders of magnitude smaller. Operand
   words (memory locations in particular) are arbitrary ints and live
   in the native-int [aux] buffer.

   [replay] is the one decoder: every consumer (the image, the
   profilers, the boxed [iter]) receives each event from it as
   unboxed ints. *)

type main_buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type aux_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let max_addr = 1 lsl 28

type t = {
  main : main_buf;
  aux : aux_buf;
  len : int;
  complete : bool;  (* the program halted within the capture cap *)
}

let length t = t.len
let complete t = t.complete

let byte_size t =
  Bigarray.Array1.size_in_bytes t.main + Bigarray.Array1.size_in_bytes t.aux

(* ---------- capture ---------- *)

let create_main n = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let create_aux n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Double a buffer, keeping its first [used] words. *)
let grow_main b used =
  let b' = create_main (2 * Bigarray.Array1.dim b) in
  Bigarray.Array1.blit (Bigarray.Array1.sub b 0 used)
    (Bigarray.Array1.sub b' 0 used);
  b'

let grow_aux b used =
  let b' = create_aux (2 * Bigarray.Array1.dim b) in
  Bigarray.Array1.blit (Bigarray.Array1.sub b 0 used)
    (Bigarray.Array1.sub b' 0 used);
  b'

let capture ?(max_insts = max_int) linked ~input =
  if Dmp_ir.Linked.size linked > max_addr then
    invalid_arg "Trace.capture: address out of int32 range";
  let emu = Emulator.create linked ~input in
  let e = Emulator.current emu in
  let main = ref (create_main 4096) in
  let aux = ref (create_aux 1024) in
  let n = ref 0 in
  let an = ref 0 in
  while !n < max_insts && Emulator.advance emu do
    let tag = e.Emulator.tag in
    if !n = Bigarray.Array1.dim !main then main := grow_main !main !n;
    Bigarray.Array1.unsafe_set !main !n
      (Int32.of_int ((e.Emulator.addr lsl 3) lor tag));
    incr n;
    if tag <> Event.tag_fall then begin
      if !an + 2 > Bigarray.Array1.dim !aux then aux := grow_aux !aux !an;
      Bigarray.Array1.unsafe_set !aux !an e.Emulator.p1;
      if tag = Event.tag_branch_taken || tag = Event.tag_branch_not_taken
      then begin
        Bigarray.Array1.unsafe_set !aux (!an + 1) e.Emulator.p2;
        an := !an + 2
      end
      else incr an
    end
  done;
  (* Trim to exact size so the marshalled form carries no slack. *)
  let main' = create_main !n and aux' = create_aux !an in
  if !n > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub !main 0 !n) main';
  if !an > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub !aux 0 !an) aux';
  { main = main'; aux = aux'; len = !n; complete = Emulator.halted emu }

(* ---------- decoding ---------- *)

let replay ?(max_insts = max_int) t f =
  let main = t.main and aux = t.aux in
  let ap = ref 0 in
  for i = 0 to min max_insts t.len - 1 do
    let w = Int32.to_int (Bigarray.Array1.unsafe_get main i) in
    let addr = w lsr 3 and tag = w land 7 in
    if tag = Event.tag_fall then f ~addr ~tag ~p1:0 ~p2:0 ~next:(addr + 1)
    else begin
      let p1 = Bigarray.Array1.unsafe_get aux !ap in
      if tag = Event.tag_branch_taken || tag = Event.tag_branch_not_taken
      then begin
        let p2 = Bigarray.Array1.unsafe_get aux (!ap + 1) in
        ap := !ap + 2;
        f ~addr ~tag ~p1 ~p2
          ~next:(if tag = Event.tag_branch_taken then p1 else p2)
      end
      else begin
        incr ap;
        f ~addr ~tag ~p1 ~p2:0
          ~next:
            (if tag = Event.tag_load || tag = Event.tag_store then addr + 1
             else p1)
      end
    end
  done

let iter ?max_insts t f =
  replay ?max_insts t (fun ~addr ~tag ~p1 ~p2 ~next ->
      f (Event.box ~addr ~tag ~p1 ~p2 ~next))
