open Dmp_ir
open Dmp_profile
module B = Build

let check = Alcotest.check

let profile_of program ~input =
  let linked = Linked.link program in
  (linked, Profile.collect linked ~input)

(* A branch taken with an exact, known probability: taken when the input
   value is odd; input = alternating parity. *)
let test_taken_prob_exact () =
  let program = Helpers.simple_hammock_program ~iters:1000 () in
  let input = Array.init 1100 (fun i -> i) in
  let linked, profile = profile_of program ~input in
  (* find the hammock branch: the one with taken prob ~0.5 *)
  let hammock =
    List.filter
      (fun addr ->
        let p = Profile.taken_prob profile ~addr in
        p > 0.4 && p < 0.6)
      (Profile.branch_addrs profile)
  in
  check Alcotest.bool "one mid-probability branch" true
    (List.length hammock = 1);
  let addr = List.hd hammock in
  check Alcotest.int "executed once per iteration" 1000
    (Profile.executed profile ~addr);
  (* alternating parity: taken exactly half the time *)
  let p = Profile.taken_prob profile ~addr in
  check Alcotest.bool "p = 0.5" true (abs_float (p -. 0.5) < 0.01);
  ignore linked

let test_edge_prob_consistency () =
  let program = Helpers.freq_hammock_program ~iters:500 () in
  let input = Helpers.uniform_input 600 in
  let linked, profile = profile_of program ~input in
  let program = linked.Linked.program in
  for func = 0 to Program.num_funcs program - 1 do
    let f = Program.func program func in
    for block = 0 to Func.num_blocks f - 1 do
      match (Func.block f block).Block.term with
      | Term.Branch _ ->
          let t = Profile.edge_prob profile ~func ~block
              ~dir:Dmp_cfg.Cfg.Taken
          in
          let nt =
            Profile.edge_prob profile ~func ~block ~dir:Dmp_cfg.Cfg.Fallthrough
          in
          check Alcotest.bool "t + nt = 1" true
            (abs_float (t +. nt -. 1.) < 1e-9)
      | Term.Jump _ ->
          check Alcotest.bool "jump prob 1" true
            (Profile.edge_prob profile ~func ~block ~dir:Dmp_cfg.Cfg.Always
             = 1.)
      | Term.Ret | Term.Halt -> ()
    done
  done

let test_block_counts () =
  let program = Helpers.simple_hammock_program ~iters:100 () in
  let input = Array.init 200 (fun i -> i) in
  let linked, profile = profile_of program ~input in
  ignore linked;
  (* entry block executes once; loop head 100 times; arms sum to 100 *)
  check Alcotest.int "entry once" 1 (Profile.block_count profile ~func:0 ~block:0);
  let loop_total =
    Profile.block_count profile ~func:0 ~block:2
    + Profile.block_count profile ~func:0 ~block:3
  in
  check Alcotest.int "arms sum to iterations" 100 loop_total

let test_unexecuted_branch_defaults () =
  let program = Helpers.simple_hammock_program ~iters:10 () in
  let _, profile = profile_of program ~input:(Array.make 100 0) in
  check Alcotest.bool "unknown addr" true
    (Profile.branch profile ~addr:9999 = None);
  check Alcotest.bool "default taken prob" true
    (Profile.taken_prob profile ~addr:9999 = 0.5);
  check Alcotest.bool "default misp" true
    (Profile.misp_rate profile ~addr:9999 = 0.)

(* Cold-branch contracts on a block the program can never enter: the
   selection pipeline leans on these defaults when it meets unprofiled
   code, and Reconstruct relies on them for branches no sample saw. *)
let test_cold_branch_contracts () =
  let r = Reg.of_int in
  let f = B.func "main" in
  B.li f (r 4) 1;
  B.branch f Term.Ne (r 4) (B.imm 0) ~target:"hot" ();
  B.label f "cold";
  B.add f (r 7) (r 7) (B.imm 1);
  B.branch f Term.Gt (r 7) (B.imm 0) ~target:"hot" ();
  B.label f "hot";
  B.write f (r 7);
  B.halt f;
  let program = Program.of_funcs_exn ~main:"main" [ B.finish f ] in
  let linked = Linked.link program in
  let profile = Profile.collect linked ~input:[||] in
  let func = 0 in
  let fn = Program.func linked.Linked.program func in
  let cold =
    let rec find i =
      if (Func.block fn i).Block.label = "cold" then i else find (i + 1)
    in
    find 0
  in
  check Alcotest.int "cold block never entered" 0
    (Profile.block_count profile ~func ~block:cold);
  let addr =
    Linked.block_addr linked ~func ~block:cold
    + Array.length (Func.block fn cold).Block.body
  in
  check Alcotest.bool "no branch record" true
    (Profile.branch profile ~addr = None);
  check (Alcotest.float 1e-9) "taken_prob defaults to 0.5" 0.5
    (Profile.taken_prob profile ~addr);
  check (Alcotest.float 1e-9) "misp_rate defaults to 0" 0.
    (Profile.misp_rate profile ~addr);
  check Alcotest.int "no mispredictions" 0
    (Profile.mispredictions profile ~addr);
  check Alcotest.int "never executed" 0 (Profile.executed profile ~addr);
  check (Alcotest.float 1e-9) "taken edge prob 0.5" 0.5
    (Profile.edge_prob profile ~func ~block:cold ~dir:Dmp_cfg.Cfg.Taken);
  check (Alcotest.float 1e-9) "fallthrough edge prob 0.5" 0.5
    (Profile.edge_prob profile ~func ~block:cold ~dir:Dmp_cfg.Cfg.Fallthrough)

(* mpki must not divide by zero when nothing retired (max_insts = 0). *)
let test_mpki_zero_retired () =
  let program = Helpers.simple_hammock_program ~iters:5 () in
  let linked = Linked.link program in
  let profile = Profile.collect ~max_insts:0 linked ~input:(Array.make 10 1) in
  check Alcotest.int "nothing retired" 0 (Profile.retired profile);
  check (Alcotest.float 1e-9) "mpki is 0" 0. (Profile.mpki profile)

let test_mispredictions_random_vs_constant () =
  (* A hammock driven by random parity mispredicts a lot; driven by a
     constant it barely mispredicts. *)
  let program = Helpers.simple_hammock_program ~iters:2000 () in
  let _, noisy = profile_of program ~input:(Helpers.uniform_input 2100) in
  let _, quiet = profile_of program ~input:(Array.make 2100 2) in
  check Alcotest.bool "noisy mispredicts more" true
    (Profile.total_mispredictions noisy
     > 5 * Profile.total_mispredictions quiet);
  check Alcotest.bool "mpki positive" true (Profile.mpki noisy > 1.)

let test_loop_average_iterations () =
  let program = Helpers.data_loop_program ~iters:1000 ~modulus:6 () in
  let input = Helpers.uniform_input 1100 in
  let linked, profile = profile_of program ~input in
  (* find the inner-loop exit branch: executed > 1000 times *)
  let inner =
    List.find
      (fun addr -> Profile.executed profile ~addr > 1500)
      (Profile.branch_addrs profile)
  in
  let s = Option.get (Profile.branch profile ~addr:inner) in
  let exits = s.Profile.executed - s.Profile.taken in
  let avg = float_of_int s.Profile.executed /. float_of_int exits in
  (* trip = v mod 6 + 1, uniform -> mean 3.5 *)
  check Alcotest.bool "avg iterations ~3.5" true
    (avg > 3.2 && avg < 3.8);
  ignore linked

let test_retired_counts () =
  let program = Helpers.simple_hammock_program ~iters:50 () in
  let linked = Linked.link program in
  let profile = Profile.collect linked ~input:(Array.make 100 1) in
  let emu = Dmp_exec.Emulator.create linked ~input:(Array.make 100 1) in
  let retired = Dmp_exec.Emulator.run emu in
  check Alcotest.int "profiler sees every instruction" retired
    (Profile.retired profile)

(* ---------- 2D-profiling ---------- *)

let test_two_d_phase_detection () =
  (* First half of the input makes the hammock condition constant; the
     second half makes it random: a phase-dependent branch. *)
  let program = Helpers.simple_hammock_program ~iters:2000 () in
  let linked = Linked.link program in
  let rnd = Helpers.uniform_input ~seed:5 2100 in
  let input = Array.init 2100 (fun i -> if i < 1000 then 2 else rnd.(i)) in
  let td = Two_d.collect ~num_slices:8 linked ~input in
  (* the hammock branch: mid taken prob overall *)
  let dependent =
    Two_d.fold
      (fun b acc -> acc || Two_d.phase_std_dev b > 0.1)
      td false
  in
  check Alcotest.bool "phase-dependent branch detected" true dependent

let test_two_d_always_easy () =
  let program = Helpers.simple_hammock_program ~iters:2000 () in
  let linked = Linked.link program in
  (* constant condition: every branch easy in every phase after warmup *)
  let input = Array.make 2100 2 in
  let td = Two_d.collect ~num_slices:8 linked ~input in
  let profile = Profile.collect linked ~input in
  let easy =
    List.filter
      (fun addr -> Two_d.is_always_easy ~rate:0.05 td addr)
      (Profile.branch_addrs profile)
  in
  check Alcotest.bool "most branches classified easy" true
    (List.length easy >= 1);
  (* random condition: the hammock must NOT be always-easy *)
  let input = Helpers.uniform_input 2100 in
  let td = Two_d.collect ~num_slices:8 linked ~input in
  let hard =
    Two_d.fold (fun b acc -> acc || Two_d.misp_rate b > 0.3) td false
  in
  check Alcotest.bool "hard branch present" true hard

let qcheck_profile_replay_equals_live =
  QCheck.Test.make
    ~name:"trace replay reproduces the live profile bit-for-bit" ~count:40
    QCheck.(int_range 2 15)
    (fun n ->
      let st = Random.State.make [| n; 13 |] in
      let linked = Linked.link (Helpers.random_program st ~nblocks:n) in
      let input = Helpers.uniform_input 64 in
      let tr = Dmp_exec.Trace.capture linked ~input in
      let bytes p = Marshal.to_string (Profile.to_raw p) [] in
      bytes (Profile.collect linked ~input)
      = bytes (Profile.collect_trace linked tr))

let qcheck_profile_total_branches =
  QCheck.Test.make ~name:"branch executions bounded by retired" ~count:40
    QCheck.(int_range 2 15)
    (fun n ->
      let st = Random.State.make [| n; 77 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let profile =
        Profile.collect linked ~input:(Helpers.uniform_input 64)
      in
      Profile.total_branch_executions profile <= Profile.retired profile
      && Profile.total_mispredictions profile
         <= Profile.total_branch_executions profile)

(* The largest benchmark's trace replayed against the smallest one's
   linked program: an event continues past the smaller program's end,
   and both profilers must reject it with [Invalid_argument] rather
   than read their per-address tables out of bounds. *)
let test_foreign_trace_rejected () =
  let module Spec = Dmp_workload.Spec in
  let by_size =
    List.sort
      (fun a b ->
        compare (Linked.size (Spec.linked a)) (Linked.size (Spec.linked b)))
      Dmp_workload.Registry.all
  in
  let small = Spec.linked (List.hd by_size) in
  let large = List.hd (List.rev by_size) in
  let trace =
    Dmp_exec.Trace.capture ~max_insts:200_000 (Spec.linked large)
      ~input:(large.Spec.input Dmp_workload.Input_gen.Reduced)
  in
  let leaves = ref false in
  Dmp_exec.Trace.replay trace (fun ~addr:_ ~tag:_ ~p1:_ ~p2:_ ~next ->
      if next >= Linked.size small then leaves := true);
  check Alcotest.bool "the trace leaves the smaller program" true !leaves;
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted another program's trace" what
  in
  rejects "Profile.collect_trace" (fun () ->
      ignore (Profile.collect_trace small trace));
  rejects "Sampler.collect_trace at periodic period 1" (fun () ->
      ignore
        (Dmp_sampling.Sampler.collect_trace
           ~config:
             { Dmp_sampling.Sampler.mode = Periodic; period = 1; seed = 42 }
           small trace))

let () =
  Alcotest.run "dmp_profile"
    [
      ( "branch stats",
        [
          Alcotest.test_case "taken prob" `Quick test_taken_prob_exact;
          Alcotest.test_case "unexecuted defaults" `Quick
            test_unexecuted_branch_defaults;
          Alcotest.test_case "cold-branch contracts" `Quick
            test_cold_branch_contracts;
          Alcotest.test_case "mpki with zero retired" `Quick
            test_mpki_zero_retired;
          Alcotest.test_case "mispredictions" `Quick
            test_mispredictions_random_vs_constant;
          Alcotest.test_case "loop averages" `Quick
            test_loop_average_iterations;
        ] );
      ( "edges",
        [
          Alcotest.test_case "consistency" `Quick test_edge_prob_consistency;
          Alcotest.test_case "block counts" `Quick test_block_counts;
        ] );
      ( "totals",
        [
          Alcotest.test_case "retired" `Quick test_retired_counts;
          QCheck_alcotest.to_alcotest qcheck_profile_total_branches;
          QCheck_alcotest.to_alcotest qcheck_profile_replay_equals_live;
          Alcotest.test_case "foreign trace rejected" `Quick
            test_foreign_trace_rejected;
        ] );
      ( "2d-profiling",
        [
          Alcotest.test_case "phase detection" `Quick
            test_two_d_phase_detection;
          Alcotest.test_case "always easy" `Quick test_two_d_always_easy;
        ] );
    ]
