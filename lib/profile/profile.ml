open Dmp_ir
open Dmp_exec
open Dmp_predictor

type branch = {
  mutable executed : int;
  mutable taken : int;
  mutable mispredicted : int;
}

type t = {
  linked : Linked.t;
  branch_stats : (int, branch) Hashtbl.t;
  block_counts : int array array;
  retired : int;
}

let stats_for branch_stats addr =
  match Hashtbl.find_opt branch_stats addr with
  | Some s -> s
  | None ->
      let s = { executed = 0; taken = 0; mispredicted = 0 } in
      Hashtbl.replace branch_stats addr s;
      s

let collect_trace ?(max_insts = max_int) linked trace =
  let predictor = Perceptron.create () in
  (* Block-start table, built once: [block_id.(a)] numbers the block
     that starts at address [a], or is -1 inside a block. *)
  let size = Linked.size linked in
  let block_id = Array.make size (-1) in
  let nblocks = ref 0 in
  Array.iter
    (Array.iter (fun a ->
         block_id.(a) <- !nblocks;
         incr nblocks))
    linked.Linked.block_addr;
  let counts = Array.make !nblocks 0 in
  let count_block b = counts.(b) <- counts.(b) + 1 in
  count_block block_id.(Linked.entry_addr linked);
  let branch_stats = Hashtbl.create 256 in
  let retired = ref 0 in
  Trace.replay ~max_insts trace (fun ~addr ~tag ~p1:_ ~p2:_ ~next ->
      incr retired;
      if tag = Event.tag_branch_taken || tag = Event.tag_branch_not_taken
      then begin
        let taken = tag = Event.tag_branch_taken in
        let s = stats_for branch_stats addr in
        s.executed <- s.executed + 1;
        if taken then s.taken <- s.taken + 1;
        if Perceptron.resolve predictor ~addr ~taken <> taken then
          s.mispredicted <- s.mispredicted + 1
      end;
      (* Count entry into the next basic block: any control transfer or
         a fall into a block boundary. *)
      if next <> Event.halted_next then begin
        if next < 0 || next >= size then
          invalid_arg
            (Printf.sprintf "Profile.collect_trace: address %d out of range"
               next);
        let b = Array.unsafe_get block_id next in
        if b >= 0 then count_block b
      end);
  let block_counts =
    Array.map
      (Array.map (fun a -> counts.(block_id.(a))))
      linked.Linked.block_addr
  in
  { linked; branch_stats; block_counts; retired = !retired }

let collect ?max_insts linked ~input =
  collect_trace ?max_insts linked (Trace.capture ?max_insts linked ~input)

let retired t = t.retired
let branch t ~addr = Hashtbl.find_opt t.branch_stats addr

let executed t ~addr =
  match branch t ~addr with Some s -> s.executed | None -> 0

let taken_prob t ~addr =
  match branch t ~addr with
  | Some s when s.executed > 0 -> float_of_int s.taken /. float_of_int s.executed
  | Some _ | None -> 0.5

let misp_rate t ~addr =
  match branch t ~addr with
  | Some s when s.executed > 0 ->
      float_of_int s.mispredicted /. float_of_int s.executed
  | Some _ | None -> 0.

let mispredictions t ~addr =
  match branch t ~addr with Some s -> s.mispredicted | None -> 0

let block_count t ~func ~block = t.block_counts.(func).(block)

let edge_prob t ~func ~block ~dir =
  let f = Program.func t.linked.Linked.program func in
  let b = Func.block f block in
  match (b.Block.term, dir) with
  | Term.Branch _, Dmp_cfg.Cfg.Taken ->
      let addr = Linked.block_addr t.linked ~func ~block
                 + Array.length b.Block.body
      in
      taken_prob t ~addr
  | Term.Branch _, Dmp_cfg.Cfg.Fallthrough ->
      let addr = Linked.block_addr t.linked ~func ~block
                 + Array.length b.Block.body
      in
      1. -. taken_prob t ~addr
  | _, Dmp_cfg.Cfg.Always -> 1.
  | (Term.Jump _ | Term.Ret | Term.Halt), (Dmp_cfg.Cfg.Taken | Dmp_cfg.Cfg.Fallthrough) ->
      0.

let total_branch_executions t =
  Hashtbl.fold (fun _ s acc -> acc + s.executed) t.branch_stats 0

let total_mispredictions t =
  Hashtbl.fold (fun _ s acc -> acc + s.mispredicted) t.branch_stats 0

let mpki t =
  if t.retired = 0 then 0.
  else float_of_int (total_mispredictions t) *. 1000. /. float_of_int t.retired

let branch_addrs t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.branch_stats []
  |> List.sort Int.compare

(* Branches are kept as a sorted association list so the serialised
   bytes do not depend on hash-table insertion order. *)
type raw = {
  raw_branches : (int * branch) list;
  raw_block_counts : int array array;
  raw_retired : int;
}

let to_raw t =
  {
    raw_branches =
      Hashtbl.fold (fun addr s acc -> (addr, s) :: acc) t.branch_stats []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    raw_block_counts = t.block_counts;
    raw_retired = t.retired;
  }

let make_raw ~branches ~block_counts ~retired =
  {
    raw_branches =
      List.map
        (fun (addr, s) ->
          ( addr,
            { executed = s.executed; taken = s.taken;
              mispredicted = s.mispredicted } ))
        branches
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    raw_block_counts = Array.map Array.copy block_counts;
    raw_retired = retired;
  }

let of_raw linked raw =
  let branch_stats = Hashtbl.create 256 in
  List.iter
    (fun (addr, s) ->
      Hashtbl.replace branch_stats addr
        { executed = s.executed; taken = s.taken;
          mispredicted = s.mispredicted })
    raw.raw_branches;
  {
    linked;
    branch_stats;
    block_counts = Array.map Array.copy raw.raw_block_counts;
    retired = raw.raw_retired;
  }
