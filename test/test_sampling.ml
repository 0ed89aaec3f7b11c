open Dmp_ir
open Dmp_profile
open Dmp_sampling
open Dmp_workload

let check = Alcotest.check
let profile_bytes p = Marshal.to_string (Profile.to_raw p) []

let sampled_profile ?max_insts linked trace config =
  Reconstruct.profile linked
    (Sampler.collect_trace ?max_insts ~config linked trace)

(* Period-1 periodic sampling observes every retired event, so
   reconstruction must return the exact profile — same branch counters,
   same block counts, byte-for-byte. *)
let qcheck_period1_identity =
  QCheck.Test.make
    ~name:"period-1 periodic sampling reconstructs the exact profile"
    ~count:40
    QCheck.(int_range 2 15)
    (fun n ->
      let st = Random.State.make [| n; 31 |] in
      let linked = Linked.link (Helpers.random_program st ~nblocks:n) in
      let input = Helpers.uniform_input 64 in
      let tr = Dmp_exec.Trace.capture linked ~input in
      let config =
        { Sampler.mode = Sampler.Periodic; period = 1; seed = n }
      in
      profile_bytes (sampled_profile linked tr config)
      = profile_bytes (Profile.collect_trace linked tr))

let cap = 40_000

let each_benchmark f =
  List.iter
    (fun spec ->
      let linked = Spec.linked spec in
      let tr =
        Dmp_exec.Trace.capture ~max_insts:cap linked
          ~input:(spec.Spec.input Input_gen.Reduced)
      in
      f spec.Spec.name linked tr)
    Registry.all

let test_period1_identity_suite () =
  each_benchmark (fun name linked tr ->
      let config =
        { Sampler.mode = Sampler.Periodic; period = 1; seed = 42 }
      in
      check Alcotest.bool (name ^ ": bytes identical") true
        (profile_bytes (sampled_profile ~max_insts:cap linked tr config)
        = profile_bytes (Profile.collect_trace ~max_insts:cap linked tr)))

(* The reconstruction's central invariant: every interior block of every
   benchmark satisfies inflow = outflow exactly, in every sampling
   mode. *)
let test_flow_conservation () =
  each_benchmark (fun name linked tr ->
      List.iter
        (fun mode ->
          let config = { Sampler.mode; period = 1000; seed = 42 } in
          let s = Sampler.collect_trace ~max_insts:cap ~config linked tr in
          check Alcotest.int
            (Printf.sprintf "%s/%s: flow violations" name
               (Sampler.mode_to_string mode))
            0
            (List.length (Reconstruct.flow_violations linked s)))
        [ Sampler.Periodic; Sampler.Lbr 16; Sampler.Mispredict ])

let test_determinism () =
  let spec = Registry.find "li" in
  let linked = Spec.linked spec in
  let tr =
    Dmp_exec.Trace.capture ~max_insts:cap linked
      ~input:(spec.Spec.input Input_gen.Reduced)
  in
  List.iter
    (fun mode ->
      let config = { Sampler.mode; period = 500; seed = 7 } in
      check Alcotest.bool
        (Sampler.mode_to_string mode ^ ": same config, same bytes") true
        (profile_bytes (sampled_profile ~max_insts:cap linked tr config)
        = profile_bytes (sampled_profile ~max_insts:cap linked tr config)))
    [ Sampler.Periodic; Sampler.Lbr 16; Sampler.Mispredict ]

(* Reconstructed counters must be well-formed whatever the mode: taken
   and mispredictions bounded by executions, non-negative block counts,
   and the exact retired total carried through unscaled. *)
let test_reconstructed_sanity () =
  let spec = Registry.find "vpr" in
  let linked = Spec.linked spec in
  let input = spec.Spec.input Input_gen.Reduced in
  let tr = Dmp_exec.Trace.capture ~max_insts:cap linked ~input in
  let exact = Profile.collect_trace ~max_insts:cap linked tr in
  List.iter
    (fun mode ->
      let config = { Sampler.mode; period = 500; seed = 7 } in
      let p = sampled_profile ~max_insts:cap linked tr config in
      let m = Sampler.mode_to_string mode in
      check Alcotest.int (m ^ ": retired is exact") (Profile.retired exact)
        (Profile.retired p);
      List.iter
        (fun addr ->
          let s = Option.get (Profile.branch p ~addr) in
          check Alcotest.bool (m ^ ": taken <= executed") true
            (0 <= s.Profile.taken && s.Profile.taken <= s.Profile.executed);
          check Alcotest.bool (m ^ ": misp <= executed") true
            (0 <= s.Profile.mispredicted
            && s.Profile.mispredicted <= s.Profile.executed))
        (Profile.branch_addrs p);
      let program = linked.Linked.program in
      for func = 0 to Program.num_funcs program - 1 do
        for block = 0
             to Func.num_blocks (Program.func program func) - 1 do
          check Alcotest.bool (m ^ ": block count non-negative") true
            (Profile.block_count p ~func ~block >= 0)
        done
      done)
    [ Sampler.Periodic; Sampler.Lbr 16; Sampler.Mispredict ]

(* Distinct sampling parameters must map to distinct config strings —
   the disk cache folds the string into the entry filename. *)
let test_config_strings () =
  let grid =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun period ->
            List.map
              (fun seed -> { Sampler.mode; period; seed })
              [ 1; 2 ])
          [ 1; 100 ])
      [ Sampler.Periodic; Sampler.Lbr 4; Sampler.Lbr 16; Sampler.Mispredict ]
  in
  let strings = List.map Sampler.config_to_string grid in
  check Alcotest.int "injective over the grid" (List.length grid)
    (List.length (List.sort_uniq String.compare strings));
  List.iter
    (fun mode ->
      check Alcotest.bool
        (Sampler.mode_to_string mode ^ ": round-trips") true
        (Sampler.mode_of_string (Sampler.mode_to_string mode) = Some mode))
    [ Sampler.Periodic; Sampler.Lbr 1; Sampler.Lbr 16; Sampler.Mispredict ];
  check Alcotest.bool "lbr defaults to depth 16" true
    (Sampler.mode_of_string "lbr" = Some (Sampler.Lbr Sampler.default_lbr_depth));
  check Alcotest.bool "mispredict alias" true
    (Sampler.mode_of_string "mispredict" = Some Sampler.Mispredict);
  check Alcotest.bool "junk rejected" true
    (Sampler.mode_of_string "lbr0" = None
    && Sampler.mode_of_string "lbrx" = None
    && Sampler.mode_of_string "" = None)

let test_invalid_config () =
  let linked = Linked.link (Helpers.simple_hammock_program ~iters:5 ()) in
  let tr = Dmp_exec.Trace.capture linked ~input:(Array.make 20 1) in
  Alcotest.check_raises "period 0 rejected"
    (Invalid_argument "Sampler.collect_trace: period must be >= 1")
    (fun () ->
      ignore
        (Sampler.collect_trace
           ~config:{ Sampler.mode = Sampler.Periodic; period = 0; seed = 1 }
           linked tr));
  Alcotest.check_raises "LBR depth 0 rejected"
    (Invalid_argument "Sampler.collect_trace: LBR depth must be >= 1")
    (fun () ->
      ignore
        (Sampler.collect_trace
           ~config:{ Sampler.mode = Sampler.Lbr 0; period = 10; seed = 1 }
           linked tr))

(* ---------- degenerate CFGs ---------- *)

module B = Build

let r = Reg.of_int

(* One block, no branches: the function entry is also its only exit. *)
let single_block_program () =
  let f = B.func "main" in
  B.li f (r 4) 3;
  B.add f (r 4) (r 4) (B.imm 1);
  B.write f (r 4);
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

(* A small loop plus an unreachable block in main, and a whole function
   the program never calls: sampling observes nothing in the dead
   regions, and reconstruction must still conserve flow there. *)
let dead_code_program () =
  let ghost = B.func "ghost" in
  B.branch ghost Term.Ne (r 4) (B.imm 0) ~target:"a" ();
  B.label ghost "b";
  B.sub ghost (r 7) (r 7) (B.imm 1);
  B.ret ghost;
  B.label ghost "a";
  B.add ghost (r 7) (r 7) (B.imm 1);
  B.ret ghost;
  let ghost = B.finish ghost in
  let f = B.func "main" in
  let n = r 6 and acc = r 7 in
  B.li f n 40;
  B.label f "loop";
  B.add f acc acc (B.imm 1);
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ~fall:"done" ();
  B.label f "done";
  B.jump f "end";
  B.label f "dead";
  B.add f acc acc (B.imm 5);
  B.jump f "end";
  B.label f "end";
  B.write f acc;
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f; ghost ]

(* Reconstruction over degenerate CFGs must never raise (in particular
   no division by zero on regions with zero samples), must conserve
   flow, and must keep the exactly-counted totals. The huge period
   yields (almost) no samples at all; Mispredict mode on a branch-free
   program yields exactly none. *)
let test_reconstruct_degenerate () =
  List.iter
    (fun (name, program, input) ->
      let linked = Linked.link program in
      let tr = Dmp_exec.Trace.capture linked ~input in
      let exact = Profile.collect_trace linked tr in
      List.iter
        (fun config ->
          let label what =
            Printf.sprintf "%s/%s: %s" name
              (Sampler.config_to_string config)
              what
          in
          let s = Sampler.collect_trace ~config linked tr in
          let p = Reconstruct.profile linked s in
          check Alcotest.int (label "flow conservation") 0
            (List.length (Reconstruct.flow_violations linked s));
          check Alcotest.int (label "retired preserved")
            (Profile.retired exact) (Profile.retired p);
          if config.Sampler.mode = Sampler.Periodic && config.Sampler.period = 1
          then
            check Alcotest.bool (label "period-1 identity") true
              (profile_bytes p = profile_bytes exact))
        [
          { Sampler.mode = Sampler.Periodic; period = 1; seed = 1 };
          { Sampler.mode = Sampler.Periodic; period = 7; seed = 2 };
          { Sampler.mode = Sampler.Periodic; period = 1_000_000; seed = 3 };
          { Sampler.mode = Sampler.Mispredict; period = 3; seed = 4 };
          { Sampler.mode = Sampler.Lbr 4; period = 11; seed = 5 };
        ])
    [
      ("single-block", single_block_program (), Helpers.uniform_input 4);
      ("dead-code", dead_code_program (), Helpers.uniform_input 64);
    ]

(* A branch-free function under LBR sampling produces no branch records
   at all, so every rate estimate degenerates to 0/0: the reconstruction
   must come back as an all-zero branch profile with non-negative block
   counts — never NaN-tainted ones (a NaN estimate rounds to 0 by the
   [round_nonneg] guard rather than reaching [int_of_float], whose
   result on NaN is unspecified). *)
let test_branch_free_lbr_all_zero () =
  let linked = Linked.link (single_block_program ()) in
  let tr = Dmp_exec.Trace.capture linked ~input:(Helpers.uniform_input 4) in
  List.iter
    (fun period ->
      let config = { Sampler.mode = Sampler.Lbr 8; period; seed = 9 } in
      let s = Sampler.collect_trace ~config linked tr in
      check Alcotest.int
        (Printf.sprintf "period %d: no branch retirements" period)
        0 (Sampler.total_branches s);
      let p = Reconstruct.profile linked s in
      check
        Alcotest.(list int)
        (Printf.sprintf "period %d: no branch counters" period)
        [] (Profile.branch_addrs p);
      let program = linked.Linked.program in
      for func = 0 to Program.num_funcs program - 1 do
        let f = Program.func program func in
        for block = 0 to Func.num_blocks f - 1 do
          let c = Profile.block_count p ~func ~block in
          if c < 0 then
            Alcotest.failf "period %d: block %d.%d reconstructed negative (%d)"
              period func block c
        done
      done)
    [ 1; 3; 1_000_000 ]

let () =
  Alcotest.run "dmp_sampling"
    [
      ( "identity",
        [
          QCheck_alcotest.to_alcotest qcheck_period1_identity;
          Alcotest.test_case "period-1 over the suite" `Slow
            test_period1_identity_suite;
        ] );
      ( "flow conservation",
        [ Alcotest.test_case "all benchmarks, all modes" `Slow
            test_flow_conservation ] );
      ( "determinism",
        [ Alcotest.test_case "repeat collection" `Slow test_determinism ] );
      ( "reconstruction",
        [
          Alcotest.test_case "counter sanity" `Slow
            test_reconstructed_sanity;
          Alcotest.test_case "degenerate CFGs" `Quick
            test_reconstruct_degenerate;
          Alcotest.test_case "branch-free LBR all-zero" `Quick
            test_branch_free_lbr_all_zero;
        ] );
      ( "config",
        [
          Alcotest.test_case "strings" `Quick test_config_strings;
          Alcotest.test_case "invalid" `Quick test_invalid_config;
        ] );
    ]
