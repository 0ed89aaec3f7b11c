open Dmp_ir
open Dmp_cfg
open Dmp_profile

module Int_set = Set.Make (Int)

type fn_ctx = {
  index : int;
  cfg : Cfg.t;
  dom : Dom.t;
  postdom : Postdom.t;
  loops : Loops.t;
  live : Live.t;
  block_weight : int array;
      (* block size with Call instructions expanded to callee static size *)
  block_cbr : int array;
      (* conditional branches: own terminator plus callee static branches *)
  def_masks : int array;
      (* registers written by each block, callees expanded, as a mask *)
  terms : int Term.t array;  (* each block's terminator *)
  succ_probs : (int * float) list array;
      (* successors in [Cfg.successors] order, with profiled edge probability *)
}

type t = {
  linked : Linked.t;
  profile : Profile.t;
  params : Params.t;
  fns : fn_ctx array;
}

let call_weights program =
  let sizes = Hashtbl.create 16 in
  Array.iter
    (fun f -> Hashtbl.replace sizes f.Func.name (Func.size f))
    program.Program.funcs;
  let cbrs = Hashtbl.create 16 in
  Array.iter
    (fun f ->
      let n =
        Array.fold_left
          (fun acc b -> if Block.is_conditional b then acc + 1 else acc)
          0 f.Func.blocks
      in
      Hashtbl.replace cbrs f.Func.name n)
    program.Program.funcs;
  (sizes, cbrs)

(* A register set as one int: register r is bit r - 1. Register 0 is
   hardwired to zero and never a def, and there are 64 registers, so
   every def fits in the 63 bits of an OCaml int. *)
let () = assert (Reg.count - 1 <= Sys.int_size)

let reg_bit r = 1 lsl (r - 1)

let defs_of_mask mask =
  let rec add set r mask =
    if mask = 0 then set
    else
      add
        (if mask land 1 <> 0 then Int_set.add r set else set)
        (r + 1) (mask lsr 1)
  in
  add Int_set.empty 1 mask

let instr_defs acc ins =
  List.fold_left
    (fun acc r -> acc lor reg_bit (Reg.to_int r))
    acc (Instr.defs ins)

let callee_index program = function
  | Instr.Call { callee } -> Program.find_func program callee
  | _ -> None

(* Registers written by each function, with calls treated as writing
   their callee's defs (conservative union over everything reachable in
   the call graph, recursion included). Each body is scanned once. *)
let transitive_defs program =
  let funcs = program.Program.funcs in
  let fold_instrs f init func =
    Array.fold_left
      (fun acc b -> Array.fold_left f acc b.Block.body)
      init func.Func.blocks
  in
  let own = Array.map (fold_instrs instr_defs 0) funcs in
  let callees =
    Array.map
      (fold_instrs
         (fun acc ins ->
           match callee_index program ins with
           | Some fi -> fi :: acc
           | None -> acc)
         [])
      funcs
  in
  Array.init (Array.length funcs) (fun root ->
      let seen = Array.make (Array.length funcs) false in
      let rec go acc fi =
        if seen.(fi) then acc
        else begin
          seen.(fi) <- true;
          List.fold_left go (acc lor own.(fi)) callees.(fi)
        end
      in
      go 0 root)

let create ?(params = Params.default) linked profile =
  let program = linked.Linked.program in
  let callee_size, callee_cbr = call_weights program in
  let func_defs = transitive_defs program in
  let fns =
    Array.init (Program.num_funcs program) (fun index ->
        let f = Program.func program index in
        let cfg = Cfg.of_func f in
        let nb = Func.num_blocks f in
        let block_weight = Array.make nb 0 in
        let block_cbr = Array.make nb 0 in
        for bi = 0 to nb - 1 do
          let b = Func.block f bi in
          let w = ref (Block.size b) and c = ref 0 in
          Array.iter
            (fun ins ->
              match ins with
              | Instr.Call { callee } ->
                  w := !w + Hashtbl.find callee_size callee;
                  c := !c + Hashtbl.find callee_cbr callee
              | _ -> ())
            b.Block.body;
          if Block.is_conditional b then incr c;
          block_weight.(bi) <- !w;
          block_cbr.(bi) <- !c
        done;
        let def_masks =
          Array.map
            (fun b ->
              Array.fold_left
                (fun acc ins ->
                  let acc = instr_defs acc ins in
                  match callee_index program ins with
                  | Some fi -> acc lor func_defs.(fi)
                  | None -> acc)
                0 b.Block.body)
            f.Func.blocks
        in
        let succ_probs =
          Array.init nb (fun block ->
              List.map
                (fun (s, dir) ->
                  (s, Profile.edge_prob profile ~func:index ~block ~dir))
                (Cfg.successors cfg block))
        in
        {
          index;
          cfg;
          dom = Dom.of_cfg cfg;
          postdom = Postdom.of_cfg cfg;
          loops = Loops.of_cfg cfg;
          live = Live.of_func f;
          block_weight;
          block_cbr;
          def_masks;
          terms = Array.map (fun b -> b.Block.term) f.Func.blocks;
          succ_probs;
        })
  in
  { linked; profile; params; fns }

let fn t i = t.fns.(i)
let num_fns t = Array.length t.fns

let branch_addr t ~func ~block =
  let f = Program.func t.linked.Linked.program func in
  let b = Func.block f block in
  Linked.block_addr t.linked ~func ~block + Array.length b.Block.body

(* Same computation without a full analysis context (used by passes
   that only have a linked program). *)
let branch_addr' linked ~func ~block =
  let f = Program.func linked.Linked.program func in
  let b = Func.block f block in
  Linked.block_addr linked ~func ~block + Array.length b.Block.body

let block_start_addr t ~func ~block =
  Linked.block_addr t.linked ~func ~block

let block_defs t ~func ~block =
  Int_set.elements (defs_of_mask (fn t func).def_masks.(block))

let region_defs t ~func blocks =
  let masks = (fn t func).def_masks in
  Int_set.elements
    (defs_of_mask (List.fold_left (fun acc b -> acc lor masks.(b)) 0 blocks))

(* Select-µops needed when two predicated paths writing [defs] merge at
   the entry of [cfm_block]: one per register live there. *)
let select_count t ~func ~cfm_block defs =
  if not t.params.Params.live_selects then List.length defs
  else
    let live = (fn t func).live in
    List.length
      (List.filter
         (fun reg -> Live.is_live_in live ~block:cfm_block ~reg)
         defs)

(* For return CFM points the continuation is in the caller; registers
   below the scratch range are assumed live across the return (our
   software convention: r20+ are intra-motif scratch). *)
let ret_select_count _t defs =
  List.length (List.filter (fun reg -> reg < 20) defs)
