(* Software-predication pipeline tests: the select primitive end to
   end (encode / decode / execute), hammock detection and alignment,
   both passes on constructed shapes, and the qcheck property suite
   over the coverage-guided corpus — transformed programs satisfy the
   CFG invariants and the architectural-equivalence oracle, threshold
   1.0 is the identity, the pipeline is deterministic, and the corpus
   demonstrably exercises both passes. *)

open Dmp_ir
open Dmp_exec
module T = Dmp_transform
module D = Dmp_check.Diagnostic
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

let fail_on_errors label ds =
  if D.has_errors ds then
    Alcotest.failf "%s: %d violations; first: %s" label
      (List.length (D.errors ds))
      (Fmt.str "%a" D.pp (List.hd (D.errors ds)))

(* Equivalence diagnostics for one (program, transform result, input). *)
let transform_diags ?max_insts linked (r : T.Pipeline.result) ~input =
  (if r.T.Pipeline.changed then
     Dmp_check.Invariants.check_linked r.T.Pipeline.linked
   else [])
  @ Dmp_check.Oracle.check_transform ?max_insts ~original:linked
      ~transformed:r.T.Pipeline.linked
      ~ignore_regs:r.T.Pipeline.fresh_regs ~input ()

let run_pipeline ?(config = T.Pass_config.default) program ~input =
  let linked = Linked.link program in
  let profile = Dmp_profile.Profile.collect linked ~input in
  (linked, T.Pipeline.run ~config linked profile)

(* ---------- the select primitive ---------- *)

let select_program if_false =
  let f = B.func "main" in
  B.read f (reg 4);
  B.li f (reg 5) 111;
  B.li f (reg 6) 222;
  B.select f (reg 7) (reg 4) (reg 5) if_false;
  B.write f (reg 7);
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

let select_output program ~cond =
  let linked = Linked.link program in
  let emu = Emulator.create linked ~input:[| cond |] in
  ignore (Emulator.run emu);
  match Emulator.output emu with
  | [ v ] -> v
  | o -> Alcotest.failf "expected one output, got %d" (List.length o)

let test_select_semantics () =
  let p = select_program (B.reg (reg 6)) in
  check Alcotest.int "cond<>0 picks if_true" 111 (select_output p ~cond:1);
  check Alcotest.int "cond=0 picks if_false" 222 (select_output p ~cond:0);
  check Alcotest.int "any nonzero cond picks if_true" 111
    (select_output p ~cond:(-3));
  let pi = select_program (B.imm 42) in
  check Alcotest.int "imm if_false" 42 (select_output pi ~cond:0);
  check Alcotest.int "imm ignored when cond set" 111 (select_output pi ~cond:5)

(* Recover synthesizes fresh label names, so the asm text differs;
   the round-trip contract is behavioural (same retired count and
   output) plus the select instruction surviving decode. *)
let behaviour program ~input =
  let emu = Emulator.create (Linked.link program) ~input in
  let retired = Emulator.run emu in
  (retired, Emulator.output emu)

let test_select_binary_round_trip () =
  List.iter
    (fun if_false ->
      let program = select_program if_false in
      let linked = Linked.link program in
      let image = Encode.encode linked in
      match Recover.program image with
      | Error m -> Alcotest.failf "recover failed: %s" m
      | Ok recovered ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i =
              i + m <= n && (String.sub s i m = sub || go (i + 1))
            in
            go 0
          in
          check Alcotest.bool "select survives decode" true
            (contains (Asm.to_string recovered) "sel");
          List.iter
            (fun cond ->
              check
                Alcotest.(pair int (list int))
                "same behaviour after round trip"
                (behaviour program ~input:[| cond |])
                (behaviour recovered ~input:[| cond |]))
            [ 1; 0; -3 ])
    [ B.reg (reg 6); B.imm 42 ]

(* ---------- alignment ---------- *)

let ins_add d s i = Instr.Alu { op = Instr.Add; dst = reg d;
                                src1 = reg s; src2 = Instr.Imm i }

let test_align () =
  let a = [| ins_add 4 4 1; ins_add 5 5 2; ins_add 6 6 3 |] in
  let b = [| ins_add 5 5 2; ins_add 6 6 3; ins_add 7 7 4 |] in
  let steps = T.Align.align a b in
  check Alcotest.int "lcs of shifted sequences" 2
    (T.Align.shared_count steps);
  check (Alcotest.float 1e-9) "similarity" (4. /. 6.)
    (T.Align.similarity a b);
  check Alcotest.int "identical sequences align fully" 3
    (T.Align.shared_count (T.Align.align a a));
  check Alcotest.int "disjoint sequences share nothing" 0
    (T.Align.shared_count (T.Align.align a [| ins_add 8 8 9 |]))

(* ---------- if-conversion on constructed hammocks ---------- *)

let test_if_convert_simple () =
  let program = Helpers.simple_hammock_program ~iters:400 () in
  let input = Helpers.uniform_input 500 in
  let linked, r = run_pipeline program ~input in
  check Alcotest.bool "changed" true r.T.Pipeline.changed;
  check Alcotest.bool "converted >= 1" true
    (r.T.Pipeline.stats.T.Stats.converted >= 1);
  check Alcotest.bool "selects emitted" true
    (r.T.Pipeline.stats.T.Stats.selects > 0);
  fail_on_errors "simple hammock" (transform_diags linked r ~input)

let if_convert_only =
  { T.Pass_config.default with
    T.Pass_config.passes = [ T.Pass_config.If_convert ] }

(* Converting the unpredictable hammock removes most of the baseline
   machine's misprediction flushes. *)
let test_if_convert_removes_flushes () =
  let program = Helpers.simple_hammock_program () in
  let input = Helpers.uniform_input 2100 in
  let linked, r = run_pipeline ~config:if_convert_only program ~input in
  let flushes linked =
    (Dmp_uarch.Sim.run ~config:Dmp_uarch.Config.baseline linked ~input)
      .Dmp_uarch.Stats.flushes
  in
  check Alcotest.bool "converted" true
    (r.T.Pipeline.stats.T.Stats.converted > 0);
  check Alcotest.bool "conversion removes most flushes" true
    (flushes r.T.Pipeline.linked * 2 < flushes linked)

(* A perfectly predictable hammock stays untouched at the default
   threshold. *)
let test_if_convert_profile_gate () =
  let program = Helpers.simple_hammock_program () in
  let input = Array.make 2100 2 in
  let _, r = run_pipeline ~config:if_convert_only program ~input in
  let s = r.T.Pipeline.stats in
  check Alcotest.int "profile gate holds" 0 s.T.Stats.converted;
  check Alcotest.bool "gated by the profile" true
    (s.T.Stats.rejected_profile > 0);
  check Alcotest.bool "program unchanged" false r.T.Pipeline.changed

(* if (c1) { if (c2) {..} else {..} } else {..} — both diamonds share
   the outer join: the inner one converts on the first sweep, turning
   [outer_t] into a straight-line block ending in a jump to the join,
   so the outer branch becomes a simple hammock the second sweep
   converts. *)
let nested_hammock_program () =
  let f = B.func "main" in
  let v = reg 4 and c1 = reg 5 and c2 = reg 8 and n = reg 6 in
  let acc = reg 7 in
  B.li f n 400;
  B.label f "loop";
  B.read f v;
  B.rem f c1 v (B.imm 2);
  B.rem f c2 v (B.imm 3);
  B.branch f Term.Ne c1 (B.imm 0) ~target:"outer_t" ();
  B.label f "outer_f";
  B.sub f acc acc (B.imm 5);
  B.jump f "join";
  B.label f "outer_t";
  B.branch f Term.Ne c2 (B.imm 0) ~target:"inner_t" ();
  B.label f "inner_f";
  B.add f acc acc (B.imm 1);
  B.jump f "join";
  B.label f "inner_t";
  B.add f acc acc (B.imm 2);
  B.jump f "join";
  B.label f "join";
  B.add f acc acc (B.reg v);
  B.write f acc;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

let test_if_convert_nested () =
  let program = nested_hammock_program () in
  let input = Helpers.uniform_input 500 in
  let linked, r = run_pipeline program ~input in
  check Alcotest.bool "both levels converted" true
    (r.T.Pipeline.stats.T.Stats.converted >= 2);
  fail_on_errors "nested hammock" (transform_diags linked r ~input)

(* ---------- melding ---------- *)

(* Arms that share an identical (unpredicable) write with differing
   predicable gaps: if-conversion must reject the region, melding must
   hoist the shared write and predicate the gaps. *)
let meldable_program () =
  let f = B.func "main" in
  let v = reg 4 and c = reg 5 and n = reg 6 and acc = reg 7 in
  B.li f n 400;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"then" ();
  B.label f "else";
  B.sub f acc acc (B.imm 1);
  B.write f acc;
  B.jump f "join";
  B.label f "then";
  B.add f acc acc (B.imm 2);
  B.write f acc;
  B.jump f "join";
  B.label f "join";
  B.add f acc acc (B.reg v);
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  Program.of_funcs_exn ~main:"main" [ B.finish f ]

let test_meld () =
  let program = meldable_program () in
  let input = Helpers.uniform_input 500 in
  let linked, r = run_pipeline program ~input in
  let s = r.T.Pipeline.stats in
  check Alcotest.int "if-conversion rejected the write" 0
    s.T.Stats.converted;
  check Alcotest.bool "melded" true (s.T.Stats.melded >= 1);
  check Alcotest.bool "hoisted the shared write" true
    (s.T.Stats.hoisted >= 1);
  fail_on_errors "meld" (transform_diags linked r ~input)

let test_meld_mutation_detected () =
  let program = meldable_program () in
  let input = Helpers.uniform_input 500 in
  let linked, r = run_pipeline program ~input in
  match T.Mutate.swap_selects r.T.Pipeline.program with
  | None -> Alcotest.fail "no selects to corrupt"
  | Some corrupted ->
      let ds =
        Dmp_check.Oracle.check_transform ~original:linked
          ~transformed:(Linked.link corrupted)
          ~ignore_regs:r.T.Pipeline.fresh_regs ~input ()
      in
      check Alcotest.bool "oracle objects to swapped selects" true
        (D.has_errors ds)

(* ---------- qcheck properties over the generated corpus ---------- *)

let corpus seed n = Helpers.generated_programs ~seed n

(* (a) transformed programs pass the CFG invariants and the
   architectural-equivalence oracle. *)
let qcheck_transform_equivalence =
  QCheck.Test.make ~name:"transform invariants + equivalence on corpus"
    ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      List.for_all
        (fun (program, input) ->
          let linked, r = run_pipeline program ~input in
          match D.errors (transform_diags linked r ~input) with
          | [] -> true
          | d :: _ -> QCheck.Test.fail_reportf "%s" (Fmt.str "%a" D.pp d))
        (corpus seed 3))

(* (b) bias threshold 1.0 is the identity transform, physically. *)
let qcheck_threshold_identity =
  QCheck.Test.make ~name:"bias threshold 1.0 is the identity" ~count:10
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let config =
        { T.Pass_config.default with T.Pass_config.bias_threshold = 1.0 }
      in
      List.for_all
        (fun (program, input) ->
          let _, r = run_pipeline ~config program ~input in
          (not r.T.Pipeline.changed)
          && r.T.Pipeline.program == program
          && r.T.Pipeline.stats.T.Stats.converted = 0
          && r.T.Pipeline.stats.T.Stats.melded = 0)
        (corpus seed 2))

(* (c) the pipeline is a pure function of (program, profile, config):
   re-running it from scratch yields the structurally identical
   program. *)
let qcheck_deterministic =
  QCheck.Test.make ~name:"transform deterministic across runs" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      List.for_all
        (fun (program, input) ->
          let _, r1 = run_pipeline program ~input in
          let _, r2 = run_pipeline program ~input in
          Asm.to_string r1.T.Pipeline.program
          = Asm.to_string r2.T.Pipeline.program)
        (corpus seed 2))

(* Coverage assert: the corpus must demonstrably exercise both passes —
   if-conversion and melding each fire on at least one generated
   program at each seed. *)
let test_corpus_exercises_both_passes () =
  List.iter
    (fun seed ->
      let totals =
        List.fold_left
          (fun acc (program, input) ->
            let _, r = run_pipeline program ~input in
            T.Stats.add acc r.T.Pipeline.stats)
          T.Stats.zero (corpus seed 40)
      in
      if totals.T.Stats.converted = 0 then
        Alcotest.failf "seed %d: if-conversion never fired on the corpus"
          seed;
      if totals.T.Stats.melded = 0 then
        Alcotest.failf "seed %d: melding never fired on the corpus" seed)
    [ 1; 2 ]

let () =
  Alcotest.run "transform"
    [
      ( "select",
        [
          Alcotest.test_case "semantics" `Quick test_select_semantics;
          Alcotest.test_case "binary round trip" `Quick
            test_select_binary_round_trip;
        ] );
      ("align", [ Alcotest.test_case "lcs" `Quick test_align ]);
      ( "passes",
        [
          Alcotest.test_case "if-convert simple" `Quick
            test_if_convert_simple;
          Alcotest.test_case "if-convert nested" `Quick
            test_if_convert_nested;
          Alcotest.test_case "if-convert removes flushes" `Quick
            test_if_convert_removes_flushes;
          Alcotest.test_case "if-convert profile gate" `Quick
            test_if_convert_profile_gate;
          Alcotest.test_case "meld" `Quick test_meld;
          Alcotest.test_case "meld mutation detected" `Quick
            test_meld_mutation_detected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_transform_equivalence;
          QCheck_alcotest.to_alcotest qcheck_threshold_identity;
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          Alcotest.test_case "corpus exercises both passes" `Quick
            test_corpus_exercises_both_passes;
        ] );
    ]
