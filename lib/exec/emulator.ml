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

(* The linked program pre-decoded by [create], one entry per address.
   Register fields index the machine's [slots]: the architectural
   registers, then [sink], which absorbs writes to the zero register,
   then one read-only slot per immediate operand, so an operand is a
   slot whatever its syntax and [Li] is a [Mov] from a constant.
   Branch, jump and call targets are resolved addresses. *)
type op =
  | Alu of { op : Instr.alu_op; dst : int; a : int; b : int }
  | Load of { dst : int; base : int; offset : int }
  | Store of { src : int; base : int; offset : int }
  | Mov of { dst : int; src : int }
  | Call of int  (* callee entry *)
  | Read of int
  | Write of int
  | Select of { dst : int; cond : int; if_true : int; if_false : int }
  | Nop
  | Branch of { cond : Term.cond; a : int; b : int; target : int; fall : int }
  | Jump of int
  | Ret
  | Halt

let sink = Reg.count

type current = {
  mutable addr : int;
  mutable tag : int;
  mutable p1 : int;
  mutable p2 : int;
  mutable next : int;
}

type t = {
  code : op array;
  slots : int array;
  mutable pages : int array array;  (* grows up to [direct_pages] *)
  far_memory : (int, int) Hashtbl.t;
  mutable stack : int array;  (* return addresses, [depth] live *)
  mutable depth : int;
  input : int array;
  mutable input_pos : int;
  mutable output_rev : int list;
  mutable pc : int;
  mutable halted : bool;
  mutable retired : int;
  current : current;
}

let decode linked =
  let consts = ref [] and nconsts = ref 0 in
  let const v =
    consts := v :: !consts;
    incr nconsts;
    sink + !nconsts
  in
  let src r = Reg.to_int r in
  let dst r = if Reg.equal r Reg.zero then sink else Reg.to_int r in
  let operand = function Instr.Reg r -> src r | Instr.Imm v -> const v in
  let code =
    Array.init (Linked.size linked) (fun addr ->
        let l = Linked.loc linked addr in
        let block b = Linked.block_addr linked ~func:l.Linked.func ~block:b in
        match l.Linked.slot with
        | Linked.Body ins -> (
            match ins with
            | Instr.Alu { op; dst = d; src1; src2 } ->
                Alu { op; dst = dst d; a = src src1; b = operand src2 }
            | Instr.Load { dst = d; base; offset } ->
                Load { dst = dst d; base = src base; offset }
            | Instr.Store { src = s; base; offset } ->
                Store { src = src s; base = src base; offset }
            | Instr.Li { dst = d; imm } -> Mov { dst = dst d; src = const imm }
            | Instr.Mov { dst = d; src = s } -> Mov { dst = dst d; src = src s }
            | Instr.Call { callee } ->
                Call
                  (Linked.func_entry linked (Linked.func_of_name linked callee))
            | Instr.Read { dst = d } -> Read (dst d)
            | Instr.Write { src = s } -> Write (src s)
            | Instr.Select { dst = d; cond; if_true; if_false } ->
                Select
                  { dst = dst d; cond = src cond; if_true = src if_true;
                    if_false = operand if_false }
            | Instr.Nop -> Nop)
        | Linked.Term tm -> (
            match tm with
            | Term.Branch { cond; src1; src2; target; fall } ->
                Branch
                  { cond; a = src src1; b = operand src2;
                    target = block target; fall = block fall }
            | Term.Jump b -> Jump (block b)
            | Term.Ret -> Ret
            | Term.Halt -> Halt))
  in
  let slots =
    Array.append (Array.make (sink + 1) 0) (Array.of_list (List.rev !consts))
  in
  (code, slots)

let create linked ~input =
  let code, slots = decode linked in
  {
    code;
    slots;
    pages = Array.make 8 no_page;
    far_memory = Hashtbl.create 16;
    stack = Array.make 64 0;
    depth = 0;
    input;
    input_pos = 0;
    output_rev = [];
    pc = Linked.entry_addr linked;
    halted = false;
    retired = 0;
    current = { addr = -1; tag = Event.tag_fall; p1 = 0; p2 = 0; next = -1 };
  }

let reg_get t r = t.slots.(Reg.to_int r)

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

let push_return t addr =
  if t.depth = Array.length t.stack then begin
    let stack = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 stack 0 t.depth;
    t.stack <- stack
  end;
  Array.unsafe_set t.stack t.depth addr;
  t.depth <- t.depth + 1

let halted t = t.halted
let retired t = t.retired
let pc t = t.pc
let output t = List.rev t.output_rev
let current t = t.current

let registers t = Array.sub t.slots 0 Reg.count

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

(* Retire one instruction into [t.current]. Slot indices were built by
   [decode], so they are read unchecked; the pc is checked. The tag
   starts as a fall-through and the other cases overwrite it. *)
let advance t =
  if t.halted then false
  else begin
    let pc = t.pc in
    if pc < 0 || pc >= Array.length t.code then
      invalid_arg (Printf.sprintf "Emulator.advance: pc %d out of range" pc);
    let s = t.slots and e = t.current in
    e.addr <- pc;
    e.tag <- Event.tag_fall;
    let next =
      match Array.unsafe_get t.code pc with
      | Alu { op; dst; a; b } ->
          Array.unsafe_set s dst
            (Instr.eval_alu op (Array.unsafe_get s a) (Array.unsafe_get s b));
          pc + 1
      | Load { dst; base; offset } ->
          let location = Array.unsafe_get s base + offset in
          Array.unsafe_set s dst (mem_load t location);
          e.tag <- Event.tag_load;
          e.p1 <- location;
          pc + 1
      | Store { src; base; offset } ->
          let location = Array.unsafe_get s base + offset in
          mem_store t location (Array.unsafe_get s src);
          e.tag <- Event.tag_store;
          e.p1 <- location;
          pc + 1
      | Mov { dst; src } ->
          Array.unsafe_set s dst (Array.unsafe_get s src);
          pc + 1
      | Call entry ->
          push_return t (pc + 1);
          e.tag <- Event.tag_call;
          e.p1 <- entry;
          entry
      | Read dst ->
          Array.unsafe_set s dst (read_input t);
          pc + 1
      | Write src ->
          t.output_rev <- Array.unsafe_get s src :: t.output_rev;
          pc + 1
      | Select { dst; cond; if_true; if_false } ->
          Array.unsafe_set s dst
            (Array.unsafe_get s
               (if Array.unsafe_get s cond <> 0 then if_true else if_false));
          pc + 1
      | Nop -> pc + 1
      | Branch { cond; a; b; target; fall } ->
          let taken =
            Term.eval_cond cond (Array.unsafe_get s a) (Array.unsafe_get s b)
          in
          e.tag <-
            (if taken then Event.tag_branch_taken
             else Event.tag_branch_not_taken);
          e.p1 <- target;
          e.p2 <- fall;
          if taken then target else fall
      | Jump target ->
          if target <> pc + 1 then e.tag <- Event.tag_jump;
          e.p1 <- target;
          target
      | Ret ->
          let return_to =
            if t.depth > 0 then begin
              t.depth <- t.depth - 1;
              Array.unsafe_get t.stack t.depth
            end
            else begin
              t.halted <- true;
              Event.halted_next
            end
          in
          e.tag <- Event.tag_ret;
          e.p1 <- return_to;
          return_to
      | Halt ->
          t.halted <- true;
          e.tag <- Event.tag_jump;
          e.p1 <- Event.halted_next;
          Event.halted_next
    in
    e.next <- next;
    t.pc <- next;
    t.retired <- t.retired + 1;
    true
  end

let event t =
  let e = t.current in
  Event.box ~addr:e.addr ~tag:e.tag ~p1:e.p1 ~p2:e.p2 ~next:e.next

let step t = if advance t then Some (event t) else None

let run ?(max_insts = max_int) t =
  while t.retired < max_insts && advance t do
    ()
  done;
  t.retired

let iter ?(max_insts = max_int) t f =
  while t.retired < max_insts && advance t do
    f (event t)
  done
