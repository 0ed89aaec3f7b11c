open Dmp_ir
open Dmp_exec
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

let run_program ?(input = [||]) program =
  let linked = Linked.link program in
  let emu = Emulator.create linked ~input in
  ignore (Emulator.run emu);
  emu

let test_arithmetic () =
  let f = B.func "main" in
  B.li f (reg 4) 21;
  B.mul f (reg 5) (reg 4) (B.imm 2);
  B.add f (reg 5) (reg 5) (B.imm (-2));
  B.write f (reg 5);
  B.halt f;
  let emu = run_program (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  check Alcotest.(list int) "output" [ 40 ] (Emulator.output emu)

let test_branching () =
  let f = B.func "main" in
  B.li f (reg 4) 3;
  B.branch f Term.Gt (reg 4) (B.imm 5) ~target:"big" ();
  B.label f "small";
  B.li f (reg 5) 1;
  B.jump f "out";
  B.label f "big";
  B.li f (reg 5) 2;
  B.label f "out";
  B.write f (reg 5);
  B.halt f;
  let emu = run_program (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  check Alcotest.(list int) "took fall side" [ 1 ] (Emulator.output emu)

let test_loop_and_memory () =
  (* Store 0..4 at 100..104, then sum them back. *)
  let f = B.func "main" in
  let i = reg 4 and a = reg 5 and acc = reg 6 and v = reg 7 in
  B.li f i 0;
  B.label f "store";
  B.add f a i (B.imm 100);
  B.store f i a 0;
  B.add f i i (B.imm 1);
  B.branch f Term.Lt i (B.imm 5) ~target:"store" ();
  B.label f "load";
  B.li f i 0;
  B.li f acc 0;
  B.label f "load_head";
  B.add f a i (B.imm 100);
  B.load f v a 0;
  B.add f acc acc (B.reg v);
  B.add f i i (B.imm 1);
  B.branch f Term.Lt i (B.imm 5) ~target:"load_head" ();
  B.label f "out";
  B.write f acc;
  B.halt f;
  let emu = run_program (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  check Alcotest.(list int) "sum" [ 10 ] (Emulator.output emu)

let test_call_ret () =
  let callee = B.func "double" in
  B.add callee (reg 4) (reg 4) (B.reg (reg 4));
  B.ret callee;
  let callee = B.finish callee in
  let f = B.func "main" in
  B.li f (reg 4) 5;
  B.call f "double";
  B.call f "double";
  B.write f (reg 4);
  B.halt f;
  let emu =
    run_program (Program.of_funcs_exn ~main:"main" [ B.finish f; callee ])
  in
  check Alcotest.(list int) "nested calls" [ 20 ] (Emulator.output emu)

let test_main_return_halts () =
  let f = B.func "main" in
  B.li f (reg 4) 1;
  B.ret f;
  let emu = run_program (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  check Alcotest.bool "halted" true (Emulator.halted emu);
  check Alcotest.int "retired" 2 (Emulator.retired emu)

let test_input_exhaustion () =
  let f = B.func "main" in
  B.read f (reg 4);
  B.read f (reg 5);
  B.write f (reg 4);
  B.write f (reg 5);
  B.halt f;
  let emu =
    run_program ~input:[| 7 |]
      (Program.of_funcs_exn ~main:"main" [ B.finish f ])
  in
  check Alcotest.(list int) "reads past end yield 0" [ 7; 0 ]
    (Emulator.output emu)

let test_max_insts () =
  let f = B.func "main" in
  B.label f "spin";
  B.nop f;
  B.jump f "spin";
  let linked = Linked.link (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  let emu = Emulator.create linked ~input:[||] in
  let n = Emulator.run ~max_insts:100 emu in
  check Alcotest.int "bounded" 100 n;
  check Alcotest.bool "not halted" false (Emulator.halted emu)

let test_branch_event_fields () =
  let program = Helpers.simple_hammock_program ~iters:10 () in
  let linked = Linked.link program in
  let emu = Emulator.create linked ~input:(Helpers.uniform_input 100) in
  let saw_branch = ref false in
  Emulator.iter emu (fun e ->
      match e.Event.kind with
      | Event.Branch { taken; target; fall } ->
          saw_branch := true;
          check Alcotest.int "next matches direction"
            (if taken then target else fall)
            e.Event.next
      | _ -> ());
  check Alcotest.bool "branches seen" true !saw_branch

let test_determinism () =
  let program = Helpers.freq_hammock_program ~iters:300 () in
  let linked = Linked.link program in
  let input = Helpers.uniform_input 400 in
  let run () =
    let emu = Emulator.create linked ~input in
    let trace = ref [] in
    Emulator.iter emu (fun e -> trace := e.Event.addr :: !trace);
    (!trace, Emulator.output emu)
  in
  let t1, o1 = run () and t2, o2 = run () in
  check Alcotest.bool "same trace" true (t1 = t2);
  check Alcotest.bool "same output" true (o1 = o2)

let test_memory_sparse_and_default_zero () =
  (* The paged store must behave exactly like an infinite zero-filled
     array: far beyond the direct-mapped window and at negative
     locations (both served by the fallback table) as well as for
     never-written direct pages. *)
  let f = B.func "main" in
  let a = reg 4 and v = reg 5 and w = reg 6 in
  B.li f v 77;
  B.li f a 5_000_000;
  B.store f v a 0;
  B.load f w a 0;
  B.write f w;
  B.li f a 123_456;
  B.load f w a 0;
  B.write f w;
  B.li f a (-8);
  B.store f v a 0;
  B.load f w a 0;
  B.write f w;
  B.halt f;
  let emu = run_program (Program.of_funcs_exn ~main:"main" [ B.finish f ]) in
  check
    Alcotest.(list int)
    "sparse stores round-trip, absent locations read 0" [ 77; 0; 77 ]
    (Emulator.output emu)

(* ---------- packed traces ---------- *)

let live_events linked ~input =
  let emu = Emulator.create linked ~input in
  let evs = ref [] in
  Emulator.iter emu (fun e -> evs := e :: !evs);
  List.rev !evs

let replay_events tr =
  let evs = ref [] in
  Trace.iter tr (fun e -> evs := e :: !evs);
  List.rev !evs

let test_trace_matches_emulator () =
  let linked = Linked.link (Helpers.ret_cfm_program ~iters:30 ()) in
  let input = Helpers.uniform_input 100 in
  let live = live_events linked ~input in
  let tr = Trace.capture linked ~input in
  check Alcotest.int "length = retired" (List.length live) (Trace.length tr);
  check Alcotest.bool "complete" true (Trace.complete tr);
  check Alcotest.bool "identical event stream" true
    (replay_events tr = live)

(* Trace.replay hands each event over unboxed: its fields must be the
   emulator's, operand by operand, and undefined operands must be 0. *)
let check_replay_fields program =
  let linked = Linked.link program in
  let input = Helpers.uniform_input 200 in
  let tr = Trace.capture linked ~input in
  let live = Array.of_list (live_events linked ~input) in
  let i = ref 0 in
  Trace.replay tr (fun ~addr ~tag ~p1 ~p2 ~next ->
      let e = live.(!i) in
      incr i;
      check Alcotest.int "addr" e.Event.addr addr;
      check Alcotest.int "next" e.Event.next next;
      match e.Event.kind with
      | Event.Branch { taken; target; fall } ->
          check Alcotest.int "branch tag"
            (if taken then Event.tag_branch_taken
             else Event.tag_branch_not_taken)
            tag;
          check Alcotest.int "target" target p1;
          check Alcotest.int "fall" fall p2
      | Event.Mem { is_load; location } ->
          check Alcotest.int "memory tag"
            (if is_load then Event.tag_load else Event.tag_store)
            tag;
          check Alcotest.int "location" location p1;
          check Alcotest.int "no second operand" 0 p2
      | Event.Call { callee_entry } ->
          check Alcotest.int "call tag" Event.tag_call tag;
          check Alcotest.int "callee entry" callee_entry p1
      | Event.Return { return_to } ->
          check Alcotest.int "return tag" Event.tag_ret tag;
          check Alcotest.int "return-to" return_to p1
      | Event.Plain ->
          if next = addr + 1 then begin
            check Alcotest.int "fall tag" Event.tag_fall tag;
            check Alcotest.int "no first operand" 0 p1
          end
          else begin
            check Alcotest.int "jump tag" Event.tag_jump tag;
            check Alcotest.int "jump target" next p1
          end);
  check Alcotest.int "replay ends with the emulator" (Array.length live) !i;
  let capped = ref 0 in
  Trace.replay ~max_insts:10 tr (fun ~addr:_ ~tag:_ ~p1:_ ~p2:_ ~next:_ ->
      incr capped);
  check Alcotest.int "max_insts caps the replay" 10 !capped

let test_trace_replay_fields () =
  check_replay_fields (Helpers.freq_hammock_program ~iters:100 ());
  check_replay_fields (Helpers.ret_cfm_program ~iters:30 ())

let test_trace_capped_incomplete () =
  let f = B.func "main" in
  B.label f "spin";
  B.nop f;
  B.jump f "spin";
  let linked =
    Linked.link (Program.of_funcs_exn ~main:"main" [ B.finish f ])
  in
  let tr = Trace.capture ~max_insts:50 linked ~input:[||] in
  check Alcotest.int "capped length" 50 (Trace.length tr);
  check Alcotest.bool "incomplete" false (Trace.complete tr)

let qcheck_trace_replay_equals_live =
  QCheck.Test.make ~name:"packed trace replays the live event stream"
    ~count:40
    QCheck.(int_range 2 20)
    (fun n ->
      let st = Random.State.make [| n; 53 |] in
      let linked = Linked.link (Helpers.random_program st ~nblocks:n) in
      let input = Helpers.uniform_input 64 in
      let tr = Trace.capture linked ~input in
      Trace.complete tr && replay_events tr = live_events linked ~input)

(* ---------- pre-decoded images ---------- *)

let image_events img =
  List.init (Image.length img) (fun i -> Image.event img i)

let test_image_matches_trace () =
  let linked = Linked.link (Helpers.freq_hammock_program ~iters:100 ()) in
  let input = Helpers.uniform_input 200 in
  let tr = Trace.capture linked ~input in
  let img = Image.of_trace tr in
  check Alcotest.int "length" (Trace.length tr) (Image.length img);
  check Alcotest.bool "complete" (Trace.complete tr) (Image.complete img);
  check Alcotest.bool "identical event stream" true
    (image_events img = replay_events tr);
  let max_a =
    List.fold_left
      (fun m (e : Event.t) -> max m e.Event.addr)
      (-1) (replay_events tr)
  in
  check Alcotest.int "max_addr" max_a (Image.max_addr img)

let test_image_capped_and_empty () =
  let f = B.func "main" in
  B.label f "spin";
  B.nop f;
  B.jump f "spin";
  let linked =
    Linked.link (Program.of_funcs_exn ~main:"main" [ B.finish f ])
  in
  let tr = Trace.capture ~max_insts:50 linked ~input:[||] in
  let img = Image.of_trace tr in
  check Alcotest.int "capped length" 50 (Image.length img);
  check Alcotest.bool "incomplete" false (Image.complete img);
  let empty = Image.of_trace (Trace.capture ~max_insts:0 linked ~input:[||]) in
  check Alcotest.int "empty" 0 (Image.length empty);
  check Alcotest.int "empty max_addr" (-1) (Image.max_addr empty);
  Alcotest.check_raises "event out of bounds"
    (Invalid_argument "Image.event: index out of bounds") (fun () ->
      ignore (Image.event img 50))

let qcheck_image_decodes_trace =
  QCheck.Test.make ~name:"image decodes the packed trace event-for-event"
    ~count:40
    QCheck.(int_range 2 20)
    (fun n ->
      let st = Random.State.make [| n; 53 |] in
      let linked = Linked.link (Helpers.random_program st ~nblocks:n) in
      let input = Helpers.uniform_input 64 in
      let tr = Trace.capture linked ~input in
      image_events (Image.of_trace tr) = replay_events tr)

let qcheck_random_programs_terminate =
  QCheck.Test.make ~name:"random programs halt within fuel" ~count:60
    QCheck.(int_range 2 20)
    (fun n ->
      let st = Random.State.make [| n; 31 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let emu =
        Emulator.create (Linked.link program)
          ~input:(Helpers.uniform_input 64)
      in
      let retired = Emulator.run ~max_insts:100_000 emu in
      Emulator.halted emu && retired < 100_000)

(* ---------- the interpreter against the reference ---------- *)

(* Step the library's emulator and [Emulator_ref] side by side: the
   first event or final-state field on which they disagree, if any. *)
let interpreter_mismatch ?(max_insts = max_int) linked ~input =
  let emu = Emulator.create linked ~input in
  let r = Emulator_ref.create linked ~input in
  let pp = function
    | None -> "end of stream"
    | Some e -> Fmt.to_to_string Event.pp e
  in
  let rec go i =
    if i >= max_insts then None
    else
      match (Emulator.step emu, Emulator_ref.step r) with
      | None, None -> None
      | Some a, Some b when a = b -> go (i + 1)
      | a, b ->
          Some (Printf.sprintf "event %d: %s, reference %s" i (pp a) (pp b))
  in
  match go 0 with
  | Some _ as m -> m
  | None ->
      List.find_map
        (fun (field, same) -> if same then None else Some field)
        [
          ("registers", Emulator.registers emu = Emulator_ref.registers r);
          ( "memory_bindings",
            Emulator.memory_bindings emu = Emulator_ref.memory_bindings r );
          ("output", Emulator.output emu = Emulator_ref.output r);
          ("halted", Emulator.halted emu = Emulator_ref.halted r);
          ("retired", Emulator.retired emu = Emulator_ref.retired r);
        ]

(* A program and its software-predicated form, the only source of
   [Select] instructions: [None] when both agree with the reference,
   else the first disagreement. *)
let program_mismatch ~max_insts linked ~input =
  match interpreter_mismatch ~max_insts linked ~input with
  | Some m -> Some ("original, " ^ m)
  | None ->
      let profile = Dmp_profile.Profile.collect ~max_insts linked ~input in
      let transformed = Dmp_transform.Pipeline.run linked profile in
      Option.map
        (fun m -> "software-predicated, " ^ m)
        (interpreter_mismatch ~max_insts
           transformed.Dmp_transform.Pipeline.linked ~input)

(* Coverage-guided random programs, fed back as `dmp check --random`
   does so that irregular CFGs appear once every shape is covered. *)
let qcheck_interpreter_matches_reference seed =
  let gen = Dmp_check.Generator.create ~seed in
  QCheck.Test.make
    ~name:(Printf.sprintf "generated programs, seed %d" seed)
    ~count:150
    (QCheck.make
       ~print:(fun (p, _) -> Asm.to_string p)
       (fun _ -> Dmp_check.Generator.next gen))
    (fun (program, input) ->
      let linked = Linked.link program in
      (match program_mismatch ~max_insts:200_000 linked ~input with
      | None -> ()
      | Some m -> QCheck.Test.fail_report m);
      let profile = Dmp_profile.Profile.collect linked ~input in
      Dmp_check.Generator.note gen
        (Dmp_core.Select.run ~config:Dmp_core.Select.all_heuristic linked
           profile);
      true)

(* Recursion 300 calls deep: the return-address stack grows past its
   initial size, which no benchmark prefix reaches. *)
let test_interpreter_deep_recursion () =
  let r = B.func "rec" in
  B.branch r Term.Eq (reg 4) (B.imm 0) ~target:"base" ();
  B.label r "step";
  B.sub r (reg 4) (reg 4) (B.imm 1);
  B.add r (reg 5) (reg 5) (B.imm 2);
  B.call r "rec";
  B.add r (reg 5) (reg 5) (B.imm 1);
  B.ret r;
  B.label r "base";
  B.ret r;
  let f = B.func "main" in
  B.li f (reg 4) 300;
  B.call f "rec";
  B.write f (reg 5);
  B.halt f;
  let linked =
    Linked.link (Program.of_funcs_exn ~main:"main" [ B.finish f; B.finish r ])
  in
  (match interpreter_mismatch linked ~input:[||] with
  | None -> ()
  | Some m -> Alcotest.fail m);
  let emu = Emulator.create linked ~input:[||] in
  ignore (Emulator.run emu);
  check Alcotest.(list int) "every frame returned" [ 900 ] (Emulator.output emu)

let test_interpreter_matches_reference_on_benchmarks () =
  List.iter
    (fun (spec : Dmp_workload.Spec.t) ->
      let linked = Dmp_workload.Spec.linked spec in
      List.iter
        (fun set ->
          match
            program_mismatch ~max_insts:100_000 linked
              ~input:(spec.Dmp_workload.Spec.input set)
          with
          | None -> ()
          | Some m -> Alcotest.failf "%s: %s" spec.Dmp_workload.Spec.name m)
        [ Dmp_workload.Input_gen.Reduced; Dmp_workload.Input_gen.Train ])
    Dmp_workload.Registry.all

(* ---------- domain pool ---------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check
        Alcotest.(list int)
        "results in submission order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs))

let test_pool_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check Alcotest.int "one worker" 1 (Pool.jobs pool);
      let d0 = (Domain.self () :> int) in
      let ds =
        Pool.map pool ~f:(fun _ -> (Domain.self () :> int)) [ 1; 2; 3 ]
      in
      check
        Alcotest.(list int)
        "tasks run on the submitting domain" [ d0; d0; d0 ] ds)

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "first failure re-raised"
        (Invalid_argument "task 3") (fun () ->
          ignore
            (Pool.map pool
               ~f:(fun i ->
                 if i mod 3 = 0 then
                   invalid_arg (Printf.sprintf "task %d" i)
                 else i)
               [ 1; 2; 3; 4; 5; 6 ])))

let test_pool_effects () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Atomic.make 0 in
      Pool.run pool
        (List.init 50 (fun _ () -> Atomic.incr hits));
      check Alcotest.int "every task ran" 50 (Atomic.get hits))

let test_pool_reuse () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let a = Pool.map pool ~f:succ [ 1; 2; 3 ] in
      let b = Pool.map pool ~f:succ [ 4; 5 ] in
      check Alcotest.(list int) "first batch" [ 2; 3; 4 ] a;
      check Alcotest.(list int) "second batch" [ 5; 6 ] b)

(* More outer tasks than workers, each submitting a nested batch on the
   same pool: with submitters parked on the batch condition instead of
   helping drain, this configuration deadlocks. *)
let test_pool_nested_map () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let rows =
        Pool.map pool
          ~f:(fun i -> Pool.map pool ~f:(fun j -> (10 * i) + j) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      check
        Alcotest.(list (list int))
        "nested batches settle in order"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
        rows;
      let sums =
        Pool.map pool
          ~f:(fun i ->
            List.fold_left ( + ) 0
              (Pool.map pool
                 ~f:(fun j ->
                   List.fold_left ( + ) 0
                     (Pool.map pool ~f:(fun k -> i * j * k) [ 1; 2 ]))
                 [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      check
        Alcotest.(list int)
        "two levels of nesting" [ 18; 36; 54; 72 ] sums)

(* ---------- DMP_JOBS validation ---------- *)

(* [Unix.putenv] cannot unset a variable; [Pool.env_jobs] treats a
   blank value as unset precisely so "" restores the unset state. *)
let with_jobs_env v f =
  let old = Option.value (Sys.getenv_opt "DMP_JOBS") ~default:"" in
  Unix.putenv "DMP_JOBS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "DMP_JOBS" old) f

let test_env_jobs_valid () =
  let cap = Domain.recommended_domain_count () in
  with_jobs_env "3" (fun () ->
      (match Pool.env_jobs () with
      | Ok (Some 3) -> ()
      | _ -> Alcotest.fail "DMP_JOBS=3 should validate as Some 3");
      check Alcotest.int "default_jobs honours DMP_JOBS up to the core count"
        (min 3 cap)
        (Pool.default_jobs ()));
  with_jobs_env " 2 " (fun () ->
      match Pool.env_jobs () with
      | Ok (Some 2) -> ()
      | _ -> Alcotest.fail "surrounding whitespace should be accepted");
  with_jobs_env "" (fun () ->
      match Pool.env_jobs () with
      | Ok None -> ()
      | _ -> Alcotest.fail "a blank DMP_JOBS should read as unset")

(* Oversubscription fix: the default worker count never exceeds the
   recommended domain count, however large DMP_JOBS is; DMP_JOBS=1
   still forces a single worker on any machine. *)
let test_default_jobs_clamped () =
  let cap = Domain.recommended_domain_count () in
  with_jobs_env "64" (fun () ->
      check Alcotest.int "a huge DMP_JOBS clamps to the core count" cap
        (Pool.default_jobs ()));
  with_jobs_env "1" (fun () ->
      check Alcotest.int "DMP_JOBS=1 stays 1" 1 (Pool.default_jobs ()))

let test_env_jobs_invalid () =
  List.iter
    (fun v ->
      with_jobs_env v (fun () ->
          (match Pool.env_jobs () with
          | Error msg ->
              if not (Astring_contains.contains msg "DMP_JOBS") then
                Alcotest.failf "error for %S does not name DMP_JOBS: %s" v
                  msg
          | Ok _ -> Alcotest.failf "DMP_JOBS=%S should be rejected" v);
          match Pool.default_jobs () with
          | exception Invalid_argument _ -> ()
          | n ->
              Alcotest.failf "default_jobs accepted DMP_JOBS=%S as %d" v n))
    [ "0"; "-2"; "four"; "1.5"; "4x" ]

(* ---------- checkpoint container ---------- *)

let test_checkpoint_bytes_roundtrip () =
  let ck =
    Checkpoint.create ~consumed:12_345
      [
        ("core", [| 1; 2; 3 |]);
        ("empty", [||]);
        ("extremes", [| -1; min_int; max_int; 0 |]);
      ]
  in
  let b = Checkpoint.to_bytes ck in
  check Alcotest.int "byte_size matches to_bytes" (Bytes.length b)
    (Checkpoint.byte_size ck);
  match Checkpoint.of_bytes b with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok ck' ->
      check Alcotest.int "consumed survives" 12_345
        (Checkpoint.consumed ck');
      check
        Alcotest.(list (pair string (array int)))
        "sections survive" (Checkpoint.sections ck)
        (Checkpoint.sections ck')

let test_checkpoint_bytes_rejects_corruption () =
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s input was accepted" what
  in
  let ck =
    Checkpoint.create ~consumed:7
      [ ("s", Array.init 64 (fun i -> (i * 17) - 5)) ]
  in
  let b = Checkpoint.to_bytes ck in
  expect_error "empty" (Checkpoint.of_bytes Bytes.empty);
  expect_error "truncated"
    (Checkpoint.of_bytes (Bytes.sub b 0 (Bytes.length b - 3)));
  let flipped = Bytes.copy b in
  let mid = Bytes.length b / 2 in
  Bytes.set flipped mid
    (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  expect_error "bit-flipped" (Checkpoint.of_bytes flipped);
  let badmagic = Bytes.copy b in
  Bytes.set badmagic 0 'X';
  expect_error "foreign-magic" (Checkpoint.of_bytes badmagic);
  expect_error "trailing-garbage"
    (Checkpoint.of_bytes (Bytes.cat b (Bytes.of_string "x")))

let () =
  Alcotest.run "dmp_exec"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "branching" `Quick test_branching;
          Alcotest.test_case "loop+memory" `Quick test_loop_and_memory;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "main return halts" `Quick
            test_main_return_halts;
          Alcotest.test_case "input exhaustion" `Quick test_input_exhaustion;
          Alcotest.test_case "sparse memory" `Quick
            test_memory_sparse_and_default_zero;
        ] );
      ( "trace",
        [
          Alcotest.test_case "max_insts" `Quick test_max_insts;
          Alcotest.test_case "branch events" `Quick test_branch_event_fields;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "packed trace",
        [
          Alcotest.test_case "matches emulator" `Quick
            test_trace_matches_emulator;
          Alcotest.test_case "replay fields" `Quick test_trace_replay_fields;
          Alcotest.test_case "capped capture" `Quick
            test_trace_capped_incomplete;
          QCheck_alcotest.to_alcotest qcheck_trace_replay_equals_live;
        ] );
      ( "image",
        [
          Alcotest.test_case "matches trace" `Quick test_image_matches_trace;
          Alcotest.test_case "capped and empty" `Quick
            test_image_capped_and_empty;
          QCheck_alcotest.to_alcotest qcheck_image_decodes_trace;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest (qcheck_interpreter_matches_reference 1);
          QCheck_alcotest.to_alcotest (qcheck_interpreter_matches_reference 2);
          Alcotest.test_case "17 benchmarks x {reduced, train}" `Quick
            test_interpreter_matches_reference_on_benchmarks;
          Alcotest.test_case "deep recursion" `Quick
            test_interpreter_deep_recursion;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "inline when jobs=1" `Quick test_pool_inline;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "runs every task" `Quick test_pool_effects;
          Alcotest.test_case "reusable across batches" `Quick
            test_pool_reuse;
          Alcotest.test_case "re-entrant nested map" `Quick
            test_pool_nested_map;
          Alcotest.test_case "DMP_JOBS accepted" `Quick test_env_jobs_valid;
          Alcotest.test_case "DMP_JOBS rejected" `Quick
            test_env_jobs_invalid;
          Alcotest.test_case "default_jobs clamps to core count" `Quick
            test_default_jobs_clamped;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "bytes round-trip" `Quick
            test_checkpoint_bytes_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_checkpoint_bytes_rejects_corruption;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_random_programs_terminate ] );
    ]
