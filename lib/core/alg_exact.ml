(* Algorithm 1 (Alg-exact): find simple and nested hammock diverge
   branches whose exact CFM point is the IPOSDOM of the branch. A
   candidate is eliminated when any path from the branch to the IPOSDOM
   exceeds MAX_INSTR instructions or MAX_CBR conditional branches (a
   cyclic region makes the structural walk overflow MAX_INSTR, so loops
   are eliminated for free). *)

open Dmp_ir
open Dmp_cfg
open Dmp_profile

module Int_set = Explore.Int_set

let region_has_call ctx ~func blocks =
  let program = ctx.Context.linked.Linked.program in
  let f = Program.func program func in
  Int_set.exists
    (fun bi ->
      Array.exists Instr.is_call (Func.block f bi).Block.body)
    blocks

(* Classify an exact hammock region: simple when there is no control
   flow at all inside (no conditional branch, no call); nested
   otherwise. *)
let classify ctx ~func ~(cfm : Candidate.cfm_candidate) =
  if cfm.Candidate.max_cbr = 0
     && not (region_has_call ctx ~func cfm.Candidate.blocks_on_paths)
  then Annotation.Simple_hammock
  else Annotation.Nested_hammock

let candidate_of_branch ctx ~func ~block =
  let ( let* ) = Option.bind in
  let fn = Context.fn ctx func in
  let* target, fall = Cfg.branch_successors fn.Context.cfg block in
  let* j = Postdom.ipostdom fn.Context.postdom block in
  let branch_addr = Context.branch_addr ctx ~func ~block in
  let executed = Profile.executed ctx.Context.profile ~addr:branch_addr in
  if executed = 0 then None
  else
    let stop_blocks = Int_set.singleton j in
    (* A side with any path over MAX_INSTR/MAX_CBR (or over the path
       cap) eliminates the branch, so each structural walk stops at its
       first overflow, and the fall-through side is not walked once the
       taken side has failed. *)
    let side start =
      Explore.structural_within_bounds ctx ~func ~start ~stop_blocks
    in
    let* rt = side target in
    let* rnt = side fall in
    let* reach_t = Explore.reach rt j in
    let* reach_nt = Explore.reach rnt j in
    let cfm =
      Candidate.make_cfm ctx ~func ~cfm_block:j ~exact:true ~merge_prob:1.
        ~reach_t ~reach_nt
    in
    (* Refine the profile-sensitive fields (expected and most-frequent
       path lengths) with a profile-mode walk; structural probabilities
       are meaningless. *)
    let profiled start =
      Explore.reach
        (Explore.explore ctx ~func ~start ~stop_blocks ~structural:false)
        j
    in
    let cfm =
      match (profiled target, profiled fall) with
      | Some preach_t, Some preach_nt ->
          { cfm with
            Candidate.avg_t = Explore.avg_insts preach_t;
            avg_nt = Explore.avg_insts preach_nt;
            freq_t = preach_t.Explore.best_path_insts;
            freq_nt = preach_nt.Explore.best_path_insts;
          }
      | _, _ -> cfm
    in
    Some
      {
        Candidate.func;
        block;
        branch_addr;
        kind = classify ctx ~func ~cfm;
        cfms = [ cfm ];
        ret = None;
        executed;
        mispredicted =
          Profile.mispredictions ctx.Context.profile ~addr:branch_addr;
      }

let find ctx =
  let out = ref [] in
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      match candidate_of_branch ctx ~func ~block with
      | Some c -> out := c :: !out
      | None -> ()
    done
  done;
  List.rev !out
