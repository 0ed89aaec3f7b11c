(* Test-only reference for Dmp_core.Explore: the straightforward path
   walk, kept as it was before the selection-cost tables existed. It
   recomputes each block's defs by rescanning callee bodies, looks up
   every edge probability in the profile, and carries the blocks
   already recorded on the path as a persistent set. The differential
   tests in test_explore.ml require the optimised engine to return a
   bitwise-identical [Explore.result]. *)

open Dmp_ir
open Dmp_cfg
open Dmp_core
module Int_set = Explore.Int_set

(* Registers written by a block, with calls treated as writing their
   callee's defs (conservative union); [seen] guards recursion. *)
let block_defs (ctx : Context.t) ~func ~block =
  let program = ctx.Context.linked.Linked.program in
  let rec func_defs seen name acc =
    if List.mem name seen then acc
    else
      match Program.find_func program name with
      | None -> acc
      | Some fi ->
          let f = Program.func program fi in
          Array.fold_left
            (fun acc b -> block_defs_raw (name :: seen) b acc)
            acc f.Func.blocks
  and block_defs_raw seen b acc =
    Array.fold_left
      (fun acc ins ->
        let acc =
          List.fold_left
            (fun acc r -> Reg.to_int r :: acc)
            acc (Instr.defs ins)
        in
        match ins with
        | Instr.Call { callee } -> func_defs seen callee acc
        | _ -> acc)
      acc b.Block.body
  in
  let f = Program.func program func in
  let b = Func.block f block in
  List.sort_uniq Int.compare (block_defs_raw [] b [])

let fresh_reach () =
  {
    Explore.prob = 0.;
    longest = 0;
    weighted_sum = 0.;
    best_path_prob = -1.;
    best_path_insts = 0;
    blocks = Int_set.empty;
    defs = Int_set.empty;
    max_cbr = 0;
  }

let record (r : Explore.reach) ~prob ~insts ~cbrs ~blocks ~defs =
  r.prob <- r.prob +. prob;
  if insts > r.longest then r.longest <- insts;
  r.weighted_sum <- r.weighted_sum +. (prob *. float_of_int insts);
  if prob > r.best_path_prob then begin
    r.best_path_prob <- prob;
    r.best_path_insts <- insts
  end;
  r.blocks <- Int_set.union r.blocks blocks;
  r.defs <- Int_set.union r.defs defs;
  if cbrs > r.max_cbr then r.max_cbr <- cbrs

let explore ctx ~func ~start ~stop_blocks ~structural =
  let fn = Context.fn ctx func in
  let cfg = fn.Context.cfg in
  let params = ctx.Context.params in
  let reaches = Hashtbl.create 32 in
  let ret = fresh_reach () in
  let ret_reached = ref false in
  let truncated = ref false in
  let capped = ref false in
  let paths = ref 0 in
  let reach_of block =
    match Hashtbl.find_opt reaches block with
    | Some r -> r
    | None ->
        let r = fresh_reach () in
        Hashtbl.replace reaches block r;
        r
  in
  let rec walk x ~prob ~insts ~cbrs ~blocks ~defs ~recorded =
    if !paths >= params.Params.max_paths then capped := true
    else begin
      let recorded =
        if Int_set.mem x recorded then recorded
        else begin
          record (reach_of x) ~prob ~insts ~cbrs ~blocks ~defs;
          Int_set.add x recorded
        end
      in
      let stop_here = Int_set.mem x stop_blocks in
      if stop_here then incr paths
      else begin
        let weight = fn.Context.block_weight.(x) in
        let cbr_here = fn.Context.block_cbr.(x) in
        let insts' = insts + weight in
        let cbrs' = cbrs + cbr_here in
        let blocks' = Int_set.add x blocks in
        let defs' =
          List.fold_left
            (fun acc r -> Int_set.add r acc)
            defs
            (block_defs ctx ~func ~block:x)
        in
        match (Cfg.block cfg x).Block.term with
        | Term.Ret ->
            if insts' > params.Params.max_instr then truncated := true
            else begin
              ret_reached := true;
              record ret ~prob ~insts:insts' ~cbrs ~blocks:blocks' ~defs:defs'
            end;
            incr paths
        | Term.Halt -> incr paths
        | Term.Jump _ | Term.Branch _ ->
            if insts' > params.Params.max_instr
               || cbrs' > params.Params.max_cbr
            then begin
              truncated := true;
              incr paths
            end
            else
              let followed = ref false in
              List.iter
                (fun (s, dir) ->
                  let p =
                    if structural then 1.
                    else
                      Dmp_profile.Profile.edge_prob ctx.Context.profile ~func
                        ~block:x ~dir
                  in
                  let follow =
                    structural || p >= params.Params.min_exec_prob
                  in
                  if follow then begin
                    followed := true;
                    let prob' = if structural then prob else prob *. p in
                    walk s ~prob:prob' ~insts:insts' ~cbrs:cbrs'
                      ~blocks:blocks' ~defs:defs' ~recorded
                  end)
                (Cfg.successors cfg x);
              if not !followed then incr paths
      end
    end
  in
  walk start ~prob:1. ~insts:0 ~cbrs:0 ~blocks:Int_set.empty
    ~defs:Int_set.empty ~recorded:Int_set.empty;
  {
    Explore.reaches;
    ret = (if !ret_reached then Some ret else None);
    truncated = !truncated;
    capped = !capped;
  }
