open Dmp_ir
open Dmp_exec
open Dmp_core
open Dmp_workload
module D = Diagnostic

let tag label ds =
  List.map
    (fun d -> { d with D.message = "[" ^ label ^ "] " ^ d.D.message })
    ds

let configs =
  [ ("all-best-heur", Select.all_heuristic);
    ("all-best-cost", Select.all_cost) ]

let mutate_annotation linked ann =
  let target =
    Annotation.fold
      (fun d acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if
              List.exists
                (fun c -> c.Annotation.cfm_addr >= 0)
                d.Annotation.cfms
            then Some d
            else None)
      ann None
  in
  match target with
  | None -> None
  | Some d ->
      let l = Linked.loc linked d.Annotation.branch_addr in
      let entry_addr =
        Linked.block_addr linked ~func:l.Linked.func ~block:0
      in
      let mutated =
        List.find
          (fun c -> c.Annotation.cfm_addr >= 0)
          d.Annotation.cfms
      in
      Annotation.replace ann
        { d with
          Annotation.cfms =
            [ { mutated with Annotation.cfm_addr = entry_addr } ] };
      Some d.Annotation.branch_addr

let check_program ?max_insts ?(mutate = false) ?(mutate_transform = false)
    ?gen linked ~input =
  let trace = Trace.capture ?max_insts linked ~input in
  let image = Image.of_trace trace in
  let profile = Dmp_profile.Profile.collect_trace ?max_insts linked trace in
  let structural =
    Invariants.check_linked linked
    @ Invariants.check_context (Context.create linked profile)
  in
  let annotated =
    List.map
      (fun (label, (config : Select.config)) ->
        (label, config, Select.run ~config linked profile))
      configs
  in
  (match (gen, annotated) with
  | Some g, (_, _, ann) :: _ -> Generator.note g ann
  | _ -> ());
  (if mutate then
     match annotated with
     | (_, _, ann) :: _ -> ignore (mutate_annotation linked ann)
     | [] -> ());
  let ann_checks =
    List.concat_map
      (fun (label, (config : Select.config), ann) ->
        let ctx =
          Context.create ~params:config.Select.params linked profile
        in
        tag label
          (Invariants.check_annotation ctx ~mode:config.Select.mode ann))
      annotated
  in
  let oracle =
    Oracle.check_streams ?max_insts linked ~input trace image
    @ Oracle.check_checkpoints ?max_insts ~label:"baseline"
        Dmp_uarch.Config.baseline None linked image
    @ List.concat_map
        (fun (label, _, ann) ->
          Oracle.check_checkpoints ?max_insts ~label:("dmp[" ^ label ^ "]")
            Dmp_uarch.Config.dmp (Some ann) linked image)
        annotated
    @ Oracle.check_profiles ?max_insts linked ~input trace
  in
  (* Dynamic merge-point provider: simulate with the small Merge Point
     Table, harvest every trained prediction and validate each against
     the true CFG. With [mutate], the first prediction is corrupted to
     the program entry (a different function, or at best a block no
     branch successor reaches) — the checker must object. *)
  let mpp =
    let sim =
      Dmp_uarch.Sim.create_image
        ~config:(Dmp_uarch.Config.dmp_dynamic Dmp_mpp.Mpt.small)
        ?max_insts linked image
    in
    ignore (Dmp_uarch.Sim.run_to_completion sim);
    let preds = Dmp_uarch.Sim.merge_predictions sim in
    let preds =
      if mutate then
        match preds with
        | (branch, _, conf) :: rest -> (branch, -1, conf) :: rest
        | [] ->
            (* No trained entry (tiny trace): fabricate a corrupt one so
               the mutation smoke still bites. *)
            [ (Linked.entry_addr linked, -1, 1) ]
      else preds
    in
    tag "mpp" (Invariants.check_predicted_merges linked preds)
  in
  (* Software-predication pipeline: the transformed program must pass
     the structural invariants and be architecturally equivalent to
     the original on this input. With [mutate_transform], every
     emitted select has its operands swapped (the predicated arms
     exchanged — a deliberately wrong conversion) and the equivalence
     oracle must object. *)
  let transform =
    let res = Dmp_transform.Pipeline.run linked profile in
    if mutate_transform then
      match
        Dmp_transform.Mutate.swap_selects
          res.Dmp_transform.Pipeline.program
      with
      | None ->
          [ D.error ~rule:"transform-mutation"
              "mutation smoke requested but the transform emitted no \
               select instruction to corrupt" ]
      | Some corrupted ->
          Oracle.check_transform ?max_insts ~original:linked
            ~transformed:(Linked.link corrupted)
            ~ignore_regs:res.Dmp_transform.Pipeline.fresh_regs ~input ()
    else if res.Dmp_transform.Pipeline.changed then
      tag "transform"
        (Invariants.check_linked res.Dmp_transform.Pipeline.linked)
      @ Oracle.check_transform ?max_insts ~original:linked
          ~transformed:res.Dmp_transform.Pipeline.linked
          ~ignore_regs:res.Dmp_transform.Pipeline.fresh_regs ~input ()
    else []
  in
  structural @ ann_checks @ oracle @ mpp @ transform

type outcome = { name : string; diagnostics : Diagnostic.t list }

let check_benchmark ?max_insts ?mutate ?mutate_transform ~set spec =
  let linked = Spec.linked spec in
  let input = spec.Spec.input set in
  { name = spec.Spec.name;
    diagnostics =
      check_program ?max_insts ?mutate ?mutate_transform linked ~input }

let check_random ?max_insts ~n ~seed () =
  let gen = Generator.create ~seed in
  let outcomes =
    List.init n (fun i ->
        let program, input = Generator.next gen in
        let linked = Linked.link program in
        { name = Printf.sprintf "random-%d" (i + 1);
          diagnostics = check_program ?max_insts ~gen linked ~input })
  in
  (outcomes, gen)
