open Dmp_ir
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

(* ---------- Reg ---------- *)

let test_reg_bounds () =
  check Alcotest.int "zero is r0" 0 (Reg.to_int Reg.zero);
  check Alcotest.bool "valid" true (Reg.equal (Reg.of_int 5) (Reg.of_int 5));
  Alcotest.check_raises "negative" (Invalid_argument "Reg.of_int: out of range")
    (fun () -> ignore (Reg.of_int (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Reg.of_int: out of range") (fun () ->
      ignore (Reg.of_int Reg.count))

(* ---------- Instr ---------- *)

let test_eval_alu () =
  check Alcotest.int "add" 7 (Instr.eval_alu Instr.Add 3 4);
  check Alcotest.int "sub" (-1) (Instr.eval_alu Instr.Sub 3 4);
  check Alcotest.int "mul" 12 (Instr.eval_alu Instr.Mul 3 4);
  check Alcotest.int "div" 2 (Instr.eval_alu Instr.Div 9 4);
  check Alcotest.int "div0" 0 (Instr.eval_alu Instr.Div 9 0);
  check Alcotest.int "rem" 1 (Instr.eval_alu Instr.Rem 9 4);
  check Alcotest.int "rem0" 0 (Instr.eval_alu Instr.Rem 9 0);
  check Alcotest.int "slt" 1 (Instr.eval_alu Instr.Slt 3 4);
  check Alcotest.int "sge" 0 (Instr.eval_alu Instr.Slt 4 4);
  check Alcotest.int "min" 3 (Instr.eval_alu Instr.Min 3 4);
  check Alcotest.int "max" 4 (Instr.eval_alu Instr.Max 3 4);
  check Alcotest.int "shl" 12 (Instr.eval_alu Instr.Shl 3 2);
  check Alcotest.int "shr" 3 (Instr.eval_alu Instr.Shr 12 2)

let test_defs_uses () =
  let i =
    Instr.Alu { op = Instr.Add; dst = reg 3; src1 = reg 4;
                src2 = Instr.Reg (reg 5) }
  in
  check Alcotest.(list int) "defs" [ 3 ] (List.map Reg.to_int (Instr.defs i));
  check Alcotest.(list int) "uses" [ 4; 5 ]
    (List.map Reg.to_int (Instr.uses i));
  let z =
    Instr.Alu { op = Instr.Add; dst = Reg.zero; src1 = reg 4;
                src2 = Instr.Imm 1 }
  in
  check Alcotest.(list int) "writes to r0 discarded" []
    (List.map Reg.to_int (Instr.defs z));
  let st = Instr.Store { src = reg 2; base = reg 3; offset = 0 } in
  check Alcotest.(list int) "store defs" []
    (List.map Reg.to_int (Instr.defs st));
  check Alcotest.(list int) "store uses" [ 2; 3 ]
    (List.map Reg.to_int (Instr.uses st))

let test_alu_op_round_trip () =
  List.iter
    (fun op ->
      match Instr.alu_op_of_string (Instr.alu_op_to_string op) with
      | Some op' -> check Alcotest.bool "round trip" true (op = op')
      | None -> Alcotest.fail "no parse")
    [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
      Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr; Instr.Slt; Instr.Sle;
      Instr.Seq; Instr.Sne; Instr.Min; Instr.Max ]

(* ---------- Term ---------- *)

let test_cond_eval () =
  check Alcotest.bool "eq" true (Term.eval_cond Term.Eq 3 3);
  check Alcotest.bool "ne" true (Term.eval_cond Term.Ne 3 4);
  check Alcotest.bool "lt" true (Term.eval_cond Term.Lt 3 4);
  check Alcotest.bool "ge" false (Term.eval_cond Term.Ge 3 4);
  check Alcotest.bool "le" true (Term.eval_cond Term.Le 4 4);
  check Alcotest.bool "gt" false (Term.eval_cond Term.Gt 4 4)

let test_negate_cond () =
  List.iter
    (fun c ->
      check Alcotest.bool "involutive" true
        (Term.negate_cond (Term.negate_cond c) = c);
      for a = -2 to 2 do
        for b = -2 to 2 do
          check Alcotest.bool "negation flips outcome"
            (not (Term.eval_cond c a b))
            (Term.eval_cond (Term.negate_cond c) a b)
        done
      done)
    [ Term.Eq; Term.Ne; Term.Lt; Term.Ge; Term.Le; Term.Gt ]

(* ---------- Build ---------- *)

let test_build_fallthrough () =
  let f = B.func "t" in
  B.li f (reg 4) 1;
  B.label f "next";
  B.li f (reg 4) 2;
  B.halt f;
  let fn = B.finish f in
  check Alcotest.int "two blocks" 2 (Func.num_blocks fn);
  match (Func.block fn 0).Block.term with
  | Term.Jump 1 -> ()
  | _ -> Alcotest.fail "expected fall-through jump to block 1"

let test_build_branch_default_fall () =
  let f = B.func "t" in
  B.branch f Term.Ne (reg 4) (B.imm 0) ~target:"t1" ();
  B.label f "f1";
  B.halt f;
  B.label f "t1";
  B.halt f;
  let fn = B.finish f in
  match (Func.block fn 0).Block.term with
  | Term.Branch { target; fall; _ } ->
      check Alcotest.int "target resolves" 2 target;
      check Alcotest.int "fall is next block" 1 fall
  | _ -> Alcotest.fail "expected branch"

let test_build_errors () =
  (* duplicate label *)
  let f = B.func "t" in
  B.halt f;
  B.label f "x";
  B.halt f;
  (try
     B.label f "x";
     B.halt f;
     ignore (B.finish f);
     Alcotest.fail "expected duplicate label error"
   with Invalid_argument _ -> ());
  (* unknown label *)
  let f = B.func "t" in
  B.jump f "nowhere";
  (try
     ignore (B.finish f);
     Alcotest.fail "expected unknown label error"
   with Invalid_argument _ -> ());
  (* trailing fallthrough *)
  let f = B.func "t" in
  B.li f (reg 4) 1;
  try
    ignore (B.finish f);
    Alcotest.fail "expected trailing fall-through error"
  with Invalid_argument _ -> ()

(* ---------- Program / Linked ---------- *)

let test_program_validation () =
  let ok = Helpers.simple_hammock_program () in
  check Alcotest.bool "valid" true (Program.validate ok = Ok ());
  let f = B.func "main" in
  B.call f "missing";
  B.halt f;
  match Program.of_funcs ~main:"main" [ B.finish f ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-callee error"

let test_linked_addresses () =
  let program = Helpers.simple_hammock_program () in
  let linked = Linked.link program in
  check Alcotest.int "dense addresses" (Program.size program)
    (Linked.size linked);
  for a = 0 to Linked.size linked - 1 do
    check Alcotest.int "addr field" a (Linked.loc linked a).Linked.addr
  done;
  (* branch targets point at block starts *)
  Linked.iter_branches linked (fun l ->
      match Linked.branch_targets linked l with
      | Some (t, fall) ->
          check Alcotest.int "taken target is block start" 0
            (Linked.loc linked t).Linked.pos;
          check Alcotest.int "fall target is block start" 0
            (Linked.loc linked fall).Linked.pos
      | None -> Alcotest.fail "branch without targets")

let test_linked_entry () =
  let program = Helpers.ret_cfm_program () in
  let linked = Linked.link program in
  let main_idx = Linked.func_of_name linked "main" in
  check Alcotest.int "entry addr" (Linked.func_entry linked main_idx)
    (Linked.entry_addr linked)

(* ---------- Asm round trip ---------- *)

let program_equal (a : Program.t) (b : Program.t) =
  Program.num_funcs a = Program.num_funcs b
  && Array.for_all2
       (fun (fa : Func.t) (fb : Func.t) ->
         fa.Func.name = fb.Func.name && fa.Func.blocks = fb.Func.blocks)
       a.Program.funcs b.Program.funcs

let test_asm_round_trip () =
  List.iter
    (fun program ->
      let text = Asm.to_string program in
      match Asm.of_string text with
      | Ok program' ->
          check Alcotest.bool "round trip preserves structure" true
            (program_equal program program')
      | Error m -> Alcotest.failf "parse failed: %s\n%s" m text)
    [
      Helpers.simple_hammock_program ();
      Helpers.freq_hammock_program ();
      Helpers.data_loop_program ();
      Helpers.ret_cfm_program ();
    ]

let test_asm_parse_errors () =
  List.iter
    (fun (text, what) ->
      match Asm.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error: %s" what)
    [
      ("func f {\nentry:\n  bogus r1\n  halt\n}", "unknown mnemonic");
      ("func f {\nentry:\n  li r99, 1\n  halt\n}", "bad register");
      ("entry:\n  halt", "statement outside func");
      ("func f {\nentry:\n  halt\n", "missing brace");
      ("func f {\nentry:\n  jmp nowhere\n}", "unknown label");
    ]

let test_asm_comments_and_whitespace () =
  let text =
    "; a program\nfunc main {\nentry:   \n  li r4, 7 ; seven\n\n       write r4\n  halt\n}\n"
  in
  match Asm.of_string text with
  | Ok p ->
      let linked = Linked.link p in
      let emu = Dmp_exec.Emulator.create linked ~input:[||] in
      ignore (Dmp_exec.Emulator.run emu);
      check Alcotest.(list int) "runs" [ 7 ] (Dmp_exec.Emulator.output emu)
  | Error m -> Alcotest.fail m

let qcheck_asm_round_trip_random =
  QCheck.Test.make ~name:"asm round trip on random programs" ~count:60
    QCheck.(int_range 2 18)
    (fun n ->
      let st = Random.State.make [| n; 47 |] in
      let program = Helpers.random_program st ~nblocks:n in
      match Asm.of_string (Asm.to_string program) with
      | Ok program' -> program_equal program program'
      | Error _ -> false)

(* Malformed assembly is an [Error], never an exception: the text of
   every registered benchmark with one line dropped, duplicated or
   swapped with its successor, or with an operand appended to it. *)
let benchmark_asm =
  lazy
    (Array.of_list
       (List.map
          (fun spec ->
            Array.of_list
              (String.split_on_char '\n'
                 (Asm.to_string
                    (Dmp_workload.Spec.linked spec).Linked.program)))
          Dmp_workload.Registry.all))

let mutate_line lines i k =
  let line = lines.(i) in
  let after =
    Array.to_list (Array.sub lines (i + 1) (Array.length lines - i - 1))
  in
  Array.to_list (Array.sub lines 0 i)
  @
  match (k, after) with
  | 0, _ -> after
  | 1, _ -> line :: line :: after
  | 2, next :: rest -> next :: line :: rest
  | _ ->
      (line ^ ", " ^ [| "r3"; "7"; "8(r2)"; "entry"; "r99" |].(k mod 5))
      :: after

let qcheck_asm_never_raises =
  QCheck.Test.make ~name:"asm parser never raises on mutated benchmarks"
    ~count:1000
    QCheck.(triple (int_bound 1_000) (int_bound 100_000) (int_bound 7))
    (fun (b, i, k) ->
      let benches = Lazy.force benchmark_asm in
      let lines = benches.(b mod Array.length benches) in
      let text =
        String.concat "\n" (mutate_line lines (i mod Array.length lines) k)
      in
      match Asm.of_string text with Ok _ | Error _ -> true)

(* ---------- qcheck properties ---------- *)

let qcheck_eval_total =
  QCheck.Test.make ~name:"eval_alu total" ~count:500
    QCheck.(triple (int_range 0 15) int int)
    (fun (opi, a, b) ->
      let ops =
        [| Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
           Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr; Instr.Slt; Instr.Sle;
           Instr.Seq; Instr.Sne; Instr.Min; Instr.Max |]
      in
      ignore (Instr.eval_alu ops.(opi) a b);
      true)

let qcheck_random_programs_validate =
  QCheck.Test.make ~name:"random programs validate" ~count:100
    QCheck.(int_range 1 20)
    (fun n ->
      let st = Random.State.make [| n; 17 |] in
      let program = Helpers.random_program st ~nblocks:n in
      Program.validate program = Ok ()
      && Linked.size (Linked.link program) = Program.size program)

let () =
  Alcotest.run "dmp_ir"
    [
      ( "reg",
        [ Alcotest.test_case "bounds" `Quick test_reg_bounds ] );
      ( "instr",
        [
          Alcotest.test_case "eval_alu" `Quick test_eval_alu;
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "alu_op round trip" `Quick
            test_alu_op_round_trip;
        ] );
      ( "term",
        [
          Alcotest.test_case "cond eval" `Quick test_cond_eval;
          Alcotest.test_case "negate" `Quick test_negate_cond;
        ] );
      ( "build",
        [
          Alcotest.test_case "fallthrough" `Quick test_build_fallthrough;
          Alcotest.test_case "default fall" `Quick
            test_build_branch_default_fall;
          Alcotest.test_case "errors" `Quick test_build_errors;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "linked addresses" `Quick test_linked_addresses;
          Alcotest.test_case "entry" `Quick test_linked_entry;
        ] );
      ( "asm",
        [
          Alcotest.test_case "round trip" `Quick test_asm_round_trip;
          Alcotest.test_case "parse errors" `Quick test_asm_parse_errors;
          Alcotest.test_case "comments" `Quick test_asm_comments_and_whitespace;
          QCheck_alcotest.to_alcotest qcheck_asm_round_trip_random;
          QCheck_alcotest.to_alcotest qcheck_asm_never_raises;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_eval_total;
          QCheck_alcotest.to_alcotest qcheck_random_programs_validate;
        ] );
    ]
