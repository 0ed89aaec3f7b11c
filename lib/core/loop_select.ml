(* Heuristic selection of diverge loop branches (Section 5.2). A loop
   exit branch is selected unless (1) the loop body exceeds
   STATIC_LOOP_SIZE instructions, (2) the expected dynamic path through
   the loop (body size x average iteration count) exceeds
   DYNAMIC_LOOP_SIZE, or (3) the average iteration count exceeds
   LOOP_ITER (high iteration counts correlate with the no-exit case). *)

open Dmp_cfg
open Dmp_profile

type loop_candidate = {
  func : int;
  block : int;
  branch_addr : int;
  body_insts : int;
  avg_iterations : float;
  exit_target : int;
  select_uops : int;
  executed : int;
  mispredicted : int;
}

let exit_direction cfg loop block =
  match Cfg.branch_successors cfg block with
  | None -> None
  | Some (target, fall) ->
      let inside b = List.exists (Int.equal b) loop.Loops.body in
      let t_out = not (inside target) and f_out = not (inside fall) in
      if t_out && not f_out then Some (`Taken, target)
      else if f_out && not t_out then Some (`Fall, fall)
      else None

let candidate_of_branch ctx ~func ~block =
  let fn = Context.fn ctx func in
  let cfg = fn.Context.cfg in
  match Loops.loop_of_branch fn.Context.loops block with
  | None -> None
  | Some loop -> (
      match exit_direction cfg loop block with
      | None -> None
      | Some (dir, exit_target) ->
          let branch_addr = Context.branch_addr ctx ~func ~block in
          let profile = ctx.Context.profile in
          (match Profile.branch profile ~addr:branch_addr with
          | None -> None
          | Some s when s.Profile.executed = 0 -> None
          | Some s ->
              let exits =
                match dir with
                | `Taken -> s.Profile.taken
                | `Fall -> s.Profile.executed - s.Profile.taken
              in
              if exits = 0 then None
              else
                let avg_iterations =
                  float_of_int s.Profile.executed /. float_of_int exits
                in
                let body_insts =
                  List.fold_left
                    (fun acc b -> acc + fn.Context.block_weight.(b))
                    0 loop.Loops.body
                in
                let select_uops =
                  Context.select_count ctx ~func ~cfm_block:exit_target
                    (Context.region_defs ctx ~func loop.Loops.body)
                in
                Some
                  {
                    func;
                    block;
                    branch_addr;
                    body_insts;
                    avg_iterations;
                    exit_target;
                    select_uops;
                    executed = s.Profile.executed;
                    mispredicted = s.Profile.mispredicted;
                  }))

let passes_heuristics params c =
  c.body_insts <= params.Params.static_loop_size
  && float_of_int c.body_insts *. c.avg_iterations
     <= float_of_int params.Params.dynamic_loop_size
  && c.avg_iterations <= float_of_int params.Params.loop_iter

let find ctx =
  let out = ref [] in
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      match candidate_of_branch ctx ~func ~block with
      | Some c when passes_heuristics ctx.Context.params c ->
          out := c :: !out
      | Some _ | None -> ()
    done
  done;
  List.rev !out

let to_diverge ctx c =
  {
    Annotation.branch_addr = c.branch_addr;
    kind = Annotation.Loop_branch;
    cfms = [];
    return_cfm = false;
    always_predicate = false;
    loop =
      Some
        {
          Annotation.body_insts = c.body_insts;
          exit_target_addr =
            Context.block_start_addr ctx ~func:c.func ~block:c.exit_target;
          avg_iterations = c.avg_iterations;
          loop_select_uops = c.select_uops;
        };
  }
