(* Test-only reference for Dmp_exec.Emulator: the interpreter as it was
   before [create] pre-decoded the program. Every step looks its
   instruction up with [Linked.loc], resolves branch and jump targets
   and callees by name, and allocates the boxed [Event.t] it returns.
   The differential tests in test_exec.ml require the library's
   emulator to produce the same event stream and the same final
   machine state. *)

open Dmp_exec
open Dmp_ir

(* Data memory is a paged flat-array store: locations in
   [0, direct_limit) index a page directory of plain int arrays (two
   array reads per access, no hashing, no boxed bindings), which covers
   every address the workloads touch. Pathological locations — negative
   or huge addresses computed by arbitrary arithmetic — fall back to a
   hashtable so semantics stay total. Absent pages and absent far
   bindings read as 0, preserving the default-zero memory model. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let direct_pages = 1 lsl 10
let direct_limit = direct_pages lsl page_bits
let no_page : int array = [||]

type t = {
  linked : Linked.t;
  regs : int array;
  mutable pages : int array array;  (* grows up to [direct_pages] *)
  far_memory : (int, int) Hashtbl.t;
  mutable call_stack : int list;
  input : int array;
  mutable input_pos : int;
  mutable output_rev : int list;
  mutable pc : int;
  mutable halted : bool;
  mutable retired : int;
}

let create linked ~input =
  {
    linked;
    regs = Array.make Reg.count 0;
    pages = Array.make 8 no_page;
    far_memory = Hashtbl.create 16;
    call_stack = [];
    input;
    input_pos = 0;
    output_rev = [];
    pc = Linked.entry_addr linked;
    halted = false;
    retired = 0;
  }

let reg_get t r = t.regs.(Reg.to_int r)

let reg_set t r v =
  if not (Reg.equal r Reg.zero) then t.regs.(Reg.to_int r) <- v

let operand_value t = function
  | Instr.Reg r -> reg_get t r
  | Instr.Imm i -> i

let mem_load t location =
  if location >= 0 && location < direct_limit then begin
    let p = location lsr page_bits in
    if p >= Array.length t.pages then 0
    else
      let page = Array.unsafe_get t.pages p in
      if page == no_page then 0
      else Array.unsafe_get page (location land page_mask)
  end
  else
    match Hashtbl.find_opt t.far_memory location with
    | Some v -> v
    | None -> 0

let mem_store t location v =
  if location >= 0 && location < direct_limit then begin
    let p = location lsr page_bits in
    if p >= Array.length t.pages then begin
      let len = ref (Array.length t.pages) in
      while p >= !len do
        len := min (2 * !len) direct_pages
      done;
      let pages = Array.make !len no_page in
      Array.blit t.pages 0 pages 0 (Array.length t.pages);
      t.pages <- pages
    end;
    let page =
      let pg = t.pages.(p) in
      if pg != no_page then pg
      else begin
        let pg = Array.make page_size 0 in
        t.pages.(p) <- pg;
        pg
      end
    in
    Array.unsafe_set page (location land page_mask) v
  end
  else Hashtbl.replace t.far_memory location v

let read_input t =
  if t.input_pos < Array.length t.input then begin
    let v = t.input.(t.input_pos) in
    t.input_pos <- t.input_pos + 1;
    v
  end
  else 0

let halted t = t.halted
let retired t = t.retired
let pc t = t.pc
let output t = List.rev t.output_rev

let registers t = Array.copy t.regs

(* Every non-zero data-memory binding, sorted by location. Zero values
   are skipped because absent locations read as 0: a machine that wrote
   0 somewhere and one that never touched it are architecturally
   indistinguishable. *)
let memory_bindings t =
  let acc = ref [] in
  Hashtbl.iter
    (fun location v -> if v <> 0 then acc := (location, v) :: !acc)
    t.far_memory;
  Array.iteri
    (fun p page ->
      if page != no_page then
        Array.iteri
          (fun i v ->
            if v <> 0 then acc := (((p lsl page_bits) lor i), v) :: !acc)
          page)
    t.pages;
  List.sort compare !acc

let step t =
  if t.halted then None
  else begin
    let l = Linked.loc t.linked t.pc in
    let addr = t.pc in
    let event =
      match l.Linked.slot with
      | Linked.Body ins -> (
          match ins with
          | Instr.Alu { op; dst; src1; src2 } ->
              reg_set t dst
                (Instr.eval_alu op (reg_get t src1) (operand_value t src2));
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Load { dst; base; offset } ->
              let location = reg_get t base + offset in
              reg_set t dst (mem_load t location);
              { Event.addr; kind = Event.Mem { is_load = true; location };
                next = addr + 1 }
          | Instr.Store { src; base; offset } ->
              let location = reg_get t base + offset in
              mem_store t location (reg_get t src);
              { Event.addr; kind = Event.Mem { is_load = false; location };
                next = addr + 1 }
          | Instr.Li { dst; imm } ->
              reg_set t dst imm;
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Mov { dst; src } ->
              reg_set t dst (reg_get t src);
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Call { callee } ->
              let fi = Linked.func_of_name t.linked callee in
              let callee_entry = Linked.func_entry t.linked fi in
              t.call_stack <- (addr + 1) :: t.call_stack;
              { Event.addr; kind = Event.Call { callee_entry };
                next = callee_entry }
          | Instr.Read { dst } ->
              reg_set t dst (read_input t);
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Write { src } ->
              t.output_rev <- reg_get t src :: t.output_rev;
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Select { dst; cond; if_true; if_false } ->
              reg_set t dst
                (if reg_get t cond <> 0 then reg_get t if_true
                 else operand_value t if_false);
              { Event.addr; kind = Event.Plain; next = addr + 1 }
          | Instr.Nop -> { Event.addr; kind = Event.Plain; next = addr + 1 })
      | Linked.Term tm -> (
          match tm with
          | Term.Branch { cond; src1; src2; target; fall } ->
              let a = reg_get t src1 and b = operand_value t src2 in
              let taken = Term.eval_cond cond a b in
              let target = Linked.block_addr t.linked ~func:l.func ~block:target in
              let fall = Linked.block_addr t.linked ~func:l.func ~block:fall in
              { Event.addr; kind = Event.Branch { taken; target; fall };
                next = (if taken then target else fall) }
          | Term.Jump b ->
              let next = Linked.block_addr t.linked ~func:l.func ~block:b in
              { Event.addr; kind = Event.Plain; next }
          | Term.Ret -> (
              match t.call_stack with
              | return_to :: rest ->
                  t.call_stack <- rest;
                  { Event.addr; kind = Event.Return { return_to };
                    next = return_to }
              | [] ->
                  t.halted <- true;
                  { Event.addr; kind = Event.Return { return_to = -1 };
                    next = Event.halted_next })
          | Term.Halt ->
              t.halted <- true;
              { Event.addr; kind = Event.Plain; next = Event.halted_next })
    in
    t.pc <- event.Event.next;
    t.retired <- t.retired + 1;
    Some event
  end
