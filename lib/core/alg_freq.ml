(* Algorithm 2 (Alg-freq): find frequently-hammock diverge branches and
   their approximate CFM points. Paths after both directions of the
   branch are explored following only directions with profiled
   probability >= MIN_EXEC_PROB, up to the IPOSDOM, MAX_INSTR
   instructions or MAX_CBR conditional branches.

   Two phases: the first discovers every block reached on both sides
   (CFM point candidates); the second re-explores with *all* candidates
   as stop points so that each candidate's reach probability is the
   probability of arriving there first — the "first time merging"
   probability of footnote 3. Chain reduction (Section 3.3.1) then keeps
   one candidate per chain, and with or without it the MAX_CFM most
   probable survive. *)

open Dmp_cfg
open Dmp_profile

module Int_set = Explore.Int_set

let common_blocks ~(rt : Explore.result) ~(rnt : Explore.result) ~exclude =
  Hashtbl.fold
    (fun x (reach_t : Explore.reach) acc ->
      if x = exclude || reach_t.Explore.prob <= 0. then acc
      else
        match Explore.reach rnt x with
        | Some reach_nt when reach_nt.Explore.prob > 0. -> Int_set.add x acc
        | Some _ | None -> acc)
    rt.Explore.reaches Int_set.empty

let candidate_of_branch ?(apply_min_merge_prob = true) ctx ~func ~block =
  let fn = Context.fn ctx func in
  let cfg = fn.Context.cfg in
  match Cfg.branch_successors cfg block with
  | None -> None
  | Some (target, fall) ->
      let branch_addr = Context.branch_addr ctx ~func ~block in
      let executed = Profile.executed ctx.Context.profile ~addr:branch_addr in
      if executed = 0 then None
      else
        let iposdom = Postdom.ipostdom fn.Context.postdom block in
        let stop0 =
          match iposdom with
          | Some j -> Int_set.singleton j
          | None -> Int_set.empty
        in
        let explore start stops =
          Explore.explore ctx ~func ~start ~stop_blocks:stops
            ~structural:false
        in
        (* Phase 1: discover CFM point candidates. *)
        let rt0 = explore target stop0 and rnt0 = explore fall stop0 in
        let candidates = common_blocks ~rt:rt0 ~rnt:rnt0 ~exclude:block in
        (* Phase 2: first-arrival statistics. *)
        let stops = Int_set.union candidates stop0 in
        let rt = explore target stops and rnt = explore fall stops in
        let params = ctx.Context.params in
        let cfms =
          Int_set.fold
            (fun x acc ->
              match (Explore.reach rt x, Explore.reach rnt x) with
              | Some reach_t, Some reach_nt ->
                  let merge_prob =
                    reach_t.Explore.prob *. reach_nt.Explore.prob
                  in
                  let ok =
                    merge_prob > 0.
                    && ((not apply_min_merge_prob)
                        || merge_prob >= params.Params.min_merge_prob)
                  in
                  if ok then
                    Candidate.make_cfm ctx ~func ~cfm_block:x
                      ~exact:(iposdom = Some x) ~merge_prob ~reach_t ~reach_nt
                    :: acc
                  else acc
              | _, _ -> acc)
            stops []
        in
        let cfms =
          if params.Params.chain_reduction then Chains.reduce cfms
          else Chains.by_merge_prob cfms
        in
        let cfms = List.filteri (fun i _ -> i < params.Params.max_cfm) cfms in
        let ret =
          match (rt.Explore.ret, rnt.Explore.ret) with
          | Some a, Some b ->
              let ret_prob = a.Explore.prob *. b.Explore.prob in
              if ret_prob > 0. then
                Some
                  {
                    Candidate.ret_prob;
                    ret_select_uops =
                      Context.ret_select_count ctx
                        (Int_set.elements
                           (Int_set.union a.Explore.defs b.Explore.defs));
                    ret_longest = max a.Explore.longest b.Explore.longest;
                  }
              else None
          | _, _ -> None
        in
        if cfms = [] && ret = None then None
        else
          Some
            {
              Candidate.func;
              block;
              branch_addr;
              kind = Annotation.Frequently_hammock;
              cfms;
              ret;
              executed;
              mispredicted =
                Profile.mispredictions ctx.Context.profile ~addr:branch_addr;
            }

let find ?apply_min_merge_prob ctx =
  let out = ref [] in
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      match candidate_of_branch ?apply_min_merge_prob ctx ~func ~block with
      | Some c -> out := c :: !out
      | None -> ()
    done
  done;
  List.rev !out
