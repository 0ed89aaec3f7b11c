(* Static if-conversion vs dynamic predication — the comparison that
   motivates the paper's introduction.

   Static predication eliminates the branch entirely (both arms always
   execute, arithmetic selects reconcile), so it can never mispredict —
   but it pays the both-arms cost on every execution, even in phases
   where the branch is perfectly predictable, and it cannot convert
   arms with stores or calls. DMP predicates the same branch *only*
   when the confidence estimator expects a misprediction.

   We run a program whose hammock condition alternates between a
   predictable phase and a random phase, under four machines:
   baseline, statically if-converted, DMP, and if-converted+DMP.

   Run with: dune exec examples/static_vs_dynamic.exe *)

open Dmp_ir
module B = Build

let iterations = 12_000

let program =
  let f = B.func "main" in
  let v = Reg.of_int 4 and c = Reg.of_int 5 and n = Reg.of_int 6 in
  let acc = Reg.of_int 7 in
  B.li f n iterations;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"odd" ();
  B.label f "even";
  B.add f acc acc (B.imm 3);
  B.xor f acc acc (B.imm 21);
  B.jump f "join";
  B.label f "odd";
  B.sub f acc acc (B.imm 7);
  B.jump f "join";
  B.label f "join";
  B.add f acc acc (B.reg v);
  B.rem f acc acc (B.imm 104729);
  (* A second hard hammock with a store in one arm: if-conversion
     cannot touch it, dynamic predication can. *)
  B.div f c v (B.imm 2);
  B.rem f c c (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"log" ();
  B.label f "nolog";
  B.add f acc acc (B.imm 1);
  B.jump f "join2";
  B.label f "log";
  B.store f acc (Reg.of_int 8) 0;
  B.add f (Reg.of_int 8) (Reg.of_int 8) (B.imm 8);
  B.rem f (Reg.of_int 8) (Reg.of_int 8) (B.imm 4096);
  B.label f "join2";
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.write f acc;
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

let () =
  (* Phased input: predictable halves alternate with random halves. *)
  let st = Random.State.make [| 3 |] in
  let input =
    Array.init (iterations + 64) (fun i ->
        if i / 1500 mod 2 = 0 then 2 else Random.State.int st 1_000_000)
  in
  let linked = Linked.link program in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let module T = Dmp_transform in
  let config =
    { T.Pass_config.default with
      T.Pass_config.passes = [ T.Pass_config.If_convert ] }
  in
  let res = T.Pipeline.run ~config linked profile in
  let stats = res.T.Pipeline.stats in
  Fmt.pr "if-conversion: %d converted, %d rejected by shape, %d by profile@."
    stats.T.Stats.converted stats.T.Stats.rejected_shape
    stats.T.Stats.rejected_profile;
  let conv_linked = res.T.Pipeline.linked in
  (* semantics must be preserved *)
  let out p =
    let emu = Dmp_exec.Emulator.create p ~input in
    ignore (Dmp_exec.Emulator.run emu);
    Dmp_exec.Emulator.output emu
  in
  assert (out linked = out conv_linked);
  Fmt.pr "semantics preserved by if-conversion@.@.";
  let run ?annotation p =
    let config =
      match annotation with
      | Some _ -> Dmp_uarch.Config.dmp
      | None -> Dmp_uarch.Config.baseline
    in
    Dmp_uarch.Sim.run ~config ?annotation p ~input
  in
  let show label stats =
    Fmt.pr "%-28s IPC %5.3f   flushes %6d   retired %d@." label
      (Dmp_uarch.Stats.ipc stats) stats.Dmp_uarch.Stats.flushes
      stats.Dmp_uarch.Stats.retired
  in
  let base = run linked in
  show "baseline" base;
  show "static if-conversion" (run conv_linked);
  let ann = Dmp_core.Select.run linked profile in
  show "DMP" (run ~annotation:ann linked);
  let conv_profile = Dmp_profile.Profile.collect conv_linked ~input in
  let conv_ann = Dmp_core.Select.run conv_linked conv_profile in
  show "if-conversion + DMP" (run ~annotation:conv_ann conv_linked);
  Fmt.pr
    "@.Static conversion removes the pure-ALU branch (and its flushes) \
     but executes both arms on every iteration and cannot convert the \
     hammock with the store. DMP predicates both hammocks, only on \
     low-confidence executions; combining the two techniques stacks \
     their coverage, as the paper's related work (wish branches, \
     hyperblocks + DMP) suggests.@."
