(* Oracle merge points: IPOSDOM of every conditional branch from the
   true CFG, packaged as an exact-CFM annotation. The analysis context
   is built over an all-zero profile — dominators, post-dominators and
   liveness are profile-independent, and the select-µop rule only needs
   the dataflow facts.

   [merge_points] is the raw oracle map (every branch with an
   IPOSDOM). [annotation] additionally applies the paper's structural
   hammock gates (Params.max_instr / max_cbr, and no path from a
   branch side back to the branch before the merge — i.e. no loop
   back-edges): those gates are CFG facts, not profile facts, and
   without them "predicate everything" drowns the machine in dual-path
   fetch for regions dynamic predication cannot win. The oracle axis
   removes the *profile* dependence while keeping the hardware's
   structural limits. *)

open Dmp_ir
open Dmp_cfg
open Dmp_profile
open Dmp_core

let empty_profile linked =
  let block_counts =
    Array.map
      (fun blocks -> Array.make (Array.length blocks) 0)
      linked.Linked.block_addr
  in
  Profile.of_raw linked (Profile.make_raw ~branches:[] ~block_counts ~retired:0)

let context linked = Context.create linked (empty_profile linked)

(* Blocks on any path from [start] to [stop] (exclusive), bounded by
   the function's own CFG; [seen] is scratch, reset by the caller. *)
let region cfg ~start ~stop seen =
  let acc = ref [] in
  let rec go b =
    if b <> stop && not seen.(b) then begin
      seen.(b) <- true;
      acc := b :: !acc;
      List.iter go (Cfg.successor_blocks cfg b)
    end
  in
  go start;
  !acc

let fold_merge_points ctx f acc =
  let acc = ref acc in
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      match Cfg.branch_successors fn.Context.cfg block with
      | None -> ()
      | Some (tk, ft) -> (
          match Postdom.ipostdom fn.Context.postdom block with
          | None -> ()
          | Some ip -> acc := f !acc ~func ~block ~taken:tk ~fall:ft ~ip)
    done
  done;
  !acc

let merge_points linked =
  let ctx = context linked in
  let pts =
    fold_merge_points ctx
      (fun acc ~func ~block ~taken:_ ~fall:_ ~ip ->
        ( Context.branch_addr ctx ~func ~block,
          Context.block_start_addr ctx ~func ~block:ip )
        :: acc)
      []
  in
  List.sort compare pts

let annotation linked =
  let ctx = context linked in
  let params = ctx.Context.params in
  let ann = Annotation.empty () in
  ignore
    (fold_merge_points ctx
       (fun () ~func ~block ~taken ~fall ~ip ->
         let fn = Context.fn ctx func in
         let cfg = fn.Context.cfg in
         let seen = Array.make (Cfg.num_nodes cfg) false in
         let blocks = region cfg ~start:taken ~stop:ip seen in
         let blocks = blocks @ region cfg ~start:fall ~stop:ip seen in
         (* A side reaching the branch again before the merge point is
            a loop around the branch: the hammock machinery cannot
            exploit it (the paper routes those to the loop mechanism). *)
         let cyclic = List.mem block blocks in
         let insts =
           List.fold_left (fun a b -> a + Cfg.block_size cfg b) 0 blocks
         in
         let cbrs =
           List.fold_left
             (fun a b -> a + if Cfg.is_conditional cfg b then 1 else 0)
             0 blocks
         in
         if
           (not cyclic)
           && insts <= params.Params.max_instr
           && cbrs <= params.Params.max_cbr
         then begin
           let select_uops =
             Context.select_count ctx ~func ~cfm_block:ip
               (Context.region_defs ctx ~func blocks)
           in
           Annotation.add ann
             {
               Annotation.branch_addr = Context.branch_addr ctx ~func ~block;
               kind = Annotation.Simple_hammock;
               cfms =
                 [
                   {
                     Annotation.cfm_addr =
                       Context.block_start_addr ctx ~func ~block:ip;
                     exact = true;
                     merge_prob = 1.0;
                     select_uops;
                   };
                 ];
               return_cfm = false;
               always_predicate = false;
               loop = None;
             }
         end)
       ());
  ann
