open Dmp_ir
open Dmp_core
module B = Build

let check = Alcotest.check
let reg = Reg.of_int

let ctx_of ?(params = Params.default) program ~input =
  let linked = Linked.link program in
  let profile = Dmp_profile.Profile.collect linked ~input in
  (linked, profile, Context.create ~params linked profile)

(* ---------- Alg-exact ---------- *)

let test_exact_simple_hammock () =
  let linked, _, ctx =
    ctx_of (Helpers.simple_hammock_program ()) ~input:(Helpers.uniform_input 2100)
  in
  ignore linked;
  let cands = Alg_exact.find ctx in
  (* the hammock and the outer loop-back... the loop branch has no small
     exact region, so exactly one candidate: the simple hammock. *)
  let simple =
    List.filter
      (fun c -> c.Candidate.kind = Annotation.Simple_hammock)
      cands
  in
  check Alcotest.int "one simple hammock" 1 (List.length simple);
  let c = List.hd simple in
  (match c.Candidate.cfms with
  | [ cfm ] ->
      check Alcotest.bool "exact" true cfm.Candidate.exact;
      check (Alcotest.float 1e-9) "merge prob 1" 1. cfm.Candidate.merge_prob;
      check Alcotest.bool "side sizes" true
        (cfm.Candidate.longest_t <= 5 && cfm.Candidate.longest_nt <= 5)
  | _ -> Alcotest.fail "expected exactly one CFM");
  check Alcotest.bool "executed" true (c.Candidate.executed > 0)

let test_exact_nested_hammock () =
  let f = B.func "main" in
  let v = reg 4 and c1 = reg 5 and c2 = reg 8 and n = reg 6 in
  B.li f n 500;
  B.label f "loop";
  B.read f v;
  B.rem f c1 v (B.imm 2);
  B.div f c2 v (B.imm 2);
  B.rem f c2 c2 (B.imm 2);
  B.branch f Term.Ne c1 (B.imm 0) ~target:"outer_t" ();
  B.label f "outer_f";
  B.nop f;
  B.jump f "join";
  B.label f "outer_t";
  B.branch f Term.Ne c2 (B.imm 0) ~target:"inner_t" ();
  B.label f "inner_f";
  B.nop f;
  B.jump f "join";
  B.label f "inner_t";
  B.nop f;
  B.label f "join";
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  let program = Program.of_funcs_exn ~main:"main" [ B.finish f ] in
  let _, _, ctx = ctx_of program ~input:(Helpers.uniform_input 600) in
  let kinds =
    List.map (fun c -> c.Candidate.kind) (Alg_exact.find ctx)
    |> List.sort_uniq compare
  in
  check Alcotest.bool "outer branch is nested" true
    (List.mem Annotation.Nested_hammock kinds);
  check Alcotest.bool "inner branch is simple" true
    (List.mem Annotation.Simple_hammock kinds)

let test_exact_rejects_large () =
  (* Arms longer than MAX_INSTR must be rejected. *)
  let params = { Params.default with Params.max_instr = 20 } in
  let f = B.func "main" in
  let v = reg 4 and c = reg 5 and n = reg 6 in
  B.li f n 200;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"t" ();
  B.label f "f";
  for _ = 1 to 40 do
    B.nop f
  done;
  B.jump f "join";
  B.label f "t";
  B.nop f;
  B.label f "join";
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  let program = Program.of_funcs_exn ~main:"main" [ B.finish f ] in
  let _, _, ctx = ctx_of ~params program ~input:(Helpers.uniform_input 300) in
  check Alcotest.int "no candidates" 0 (List.length (Alg_exact.find ctx))

(* ---------- Alg-freq ---------- *)

let test_freq_hammock_found () =
  let _, _, ctx =
    ctx_of (Helpers.freq_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  let cands = Alg_freq.find ctx in
  (* the main hammock branch must be found with a high-but-not-1 merge
     probability at the hot join *)
  let with_approx =
    List.filter
      (fun c ->
        List.exists
          (fun cfm ->
            (not cfm.Candidate.exact)
            && cfm.Candidate.merge_prob > 0.85
            && cfm.Candidate.merge_prob < 1.)
          c.Candidate.cfms)
      cands
  in
  check Alcotest.bool "approximate CFM found" true (with_approx <> []);
  (* rare-exit probability ~5%: merge prob ~0.95 *)
  let cfm =
    List.find
      (fun (cfm : Candidate.cfm_candidate) ->
        (not cfm.Candidate.exact) && cfm.Candidate.merge_prob > 0.85)
      (List.concat_map (fun c -> c.Candidate.cfms) with_approx)
  in
  check Alcotest.bool "merge prob ~0.95" true
    (cfm.Candidate.merge_prob > 0.90 && cfm.Candidate.merge_prob < 0.99)

let test_freq_respects_min_merge_prob () =
  let params = { Params.default with Params.min_merge_prob = 0.99 } in
  let _, _, ctx =
    ctx_of ~params (Helpers.freq_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  List.iter
    (fun c ->
      List.iter
        (fun (cfm : Candidate.cfm_candidate) ->
          check Alcotest.bool "all cfms above threshold" true
            (cfm.Candidate.merge_prob >= 0.99))
        c.Candidate.cfms)
    (Alg_freq.find ctx)

let test_freq_max_cfm_cap () =
  let _, _, ctx =
    ctx_of (Helpers.freq_hammock_program ())
      ~input:(Helpers.uniform_input 2100)
  in
  List.iter
    (fun c ->
      check Alcotest.bool "cfm cap" true
        (List.length c.Candidate.cfms <= Params.default.Params.max_cfm))
    (Alg_freq.find ctx)

(* ---------- chains ---------- *)

let test_chain_reduction () =
  (* A -> {B, C}; B -> C -> D: C is on every path to D, so C and D chain
     and only one survives. First-arrival exploration gives D ~zero
     probability, so C must win. *)
  let f = B.func "main" in
  let v = reg 4 and c = reg 5 and n = reg 6 in
  B.li f n 500;
  B.label f "loop";
  B.read f v;
  B.rem f c v (B.imm 2);
  B.branch f Term.Ne c (B.imm 0) ~target:"bb" ();
  B.label f "cc_direct";
  B.nop f;
  B.jump f "cc";
  B.label f "bb";
  B.nop f;
  B.label f "cc";
  B.nop f;
  B.label f "dd";
  B.nop f;
  B.sub f n n (B.imm 1);
  B.branch f Term.Gt n (B.imm 0) ~target:"loop" ();
  B.label f "end";
  B.halt f;
  let program = Program.of_funcs_exn ~main:"main" [ B.finish f ] in
  let _, _, ctx = ctx_of program ~input:(Helpers.uniform_input 600) in
  List.iter
    (fun (c : Candidate.t) ->
      (* no selected CFM may lie on a path to another selected CFM *)
      List.iter
        (fun (x : Candidate.cfm_candidate) ->
          List.iter
            (fun (y : Candidate.cfm_candidate) ->
              if x != y then
                check Alcotest.bool "chain-free" false
                  (Candidate.Int_set.mem x.Candidate.cfm_block
                     y.Candidate.blocks_on_paths))
            c.Candidate.cfms)
        c.Candidate.cfms)
    (Alg_freq.find ctx)

(* ---------- return CFM ---------- *)

let test_return_cfm () =
  let linked = Linked.link (Helpers.ret_cfm_program ()) in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 2100)
  in
  let ann = Select.run linked profile in
  let with_ret =
    Annotation.fold
      (fun d acc -> if d.Annotation.return_cfm then d :: acc else acc)
      ann []
  in
  check Alcotest.int "one return-CFM diverge branch" 1
    (List.length with_ret)

(* ---------- short hammocks ---------- *)

let test_short_hammock_always () =
  let linked = Linked.link (Helpers.simple_hammock_program ()) in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 2100)
  in
  let ann = Select.run linked profile in
  let always =
    Annotation.fold
      (fun d acc -> if d.Annotation.always_predicate then d :: acc else acc)
      ann []
  in
  check Alcotest.bool "tiny mispredicted hammock is always-predicated" true
    (always <> []);
  (* without the Short technique nothing is always-predicated *)
  let config =
    Select.cumulative_heuristic [ Select.Exact; Select.Freq ]
  in
  let ann2 = Select.run ~config linked profile in
  Annotation.iter
    (fun d ->
      check Alcotest.bool "no always flag" false d.Annotation.always_predicate)
    ann2

(* ---------- loops ---------- *)

let test_loop_selection_boundaries () =
  (* avg iterations ~3.5 passes LOOP_ITER = 15; big modulus fails. *)
  let accept = Helpers.data_loop_program ~iters:1000 ~modulus:6 () in
  let linked = Linked.link accept in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 1100)
  in
  let ctx = Context.create linked profile in
  check Alcotest.bool "small loop accepted" true (Loop_select.find ctx <> []);
  let reject = Helpers.data_loop_program ~iters:1000 ~modulus:40 () in
  let linked = Linked.link reject in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 1100)
  in
  let ctx = Context.create linked profile in
  check Alcotest.bool "high-iteration loop rejected by LOOP_ITER" true
    (Loop_select.find ctx = [])

let test_loop_static_size_filter () =
  let big = Helpers.data_loop_program ~iters:500 ~modulus:4 ~body:40 () in
  let linked = Linked.link big in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 600)
  in
  let ctx = Context.create linked profile in
  check Alcotest.bool "fat body rejected by STATIC_LOOP_SIZE" true
    (Loop_select.find ctx = [])

(* ---------- cost model ---------- *)

let synthetic_cfm ~insts ~merge_prob =
  {
    Candidate.cfm_block = 0;
    cfm_addr = 0;
    exact = merge_prob >= 1.;
    merge_prob;
    longest_t = insts;
    longest_nt = insts;
    avg_t = float_of_int insts;
    avg_nt = float_of_int insts;
    freq_t = insts;
    freq_nt = insts;
    prob_t = 1.;
    prob_nt = 1.;
    max_cbr = 0;
    select_uops = 2;
    blocks_on_paths = Candidate.Int_set.empty;
  }

let cost_of ~insts ~merge_prob =
  let cfm = synthetic_cfm ~insts ~merge_prob in
  Cost_model.dpred_cost Params.default
    ~overhead:
      (Cost_model.dpred_overhead Params.default Cost_model.Edge_weighted
         [ cfm ] ~taken_prob:0.5)

let test_cost_monotone_in_size () =
  let last = ref neg_infinity in
  List.iter
    (fun insts ->
      let c = cost_of ~insts ~merge_prob:0.95 in
      check Alcotest.bool "cost grows with hammock size" true (c >= !last);
      last := c)
    [ 2; 8; 16; 32; 64; 128 ]

let test_cost_monotone_in_merge_prob () =
  let last = ref infinity in
  List.iter
    (fun p ->
      let c = cost_of ~insts:16 ~merge_prob:p in
      check Alcotest.bool "cost falls as merge prob rises" true (c <= !last);
      last := c)
    [ 0.1; 0.3; 0.5; 0.8; 0.95; 1.0 ]

let test_cost_select_decision () =
  check Alcotest.bool "small exact hammock selected" true
    (cost_of ~insts:6 ~merge_prob:1.0 < 0.);
  check Alcotest.bool "huge hammock rejected" true
    (cost_of ~insts:150 ~merge_prob:1.0 > 0.)

let test_useless_insts () =
  let cfm = synthetic_cfm ~insts:10 ~merge_prob:1. in
  (* symmetric 10/10 hammock, taken prob 0.5: 10 useless *)
  check (Alcotest.float 1e-9) "useless" 10.
    (Cost_model.useless_insts Cost_model.Edge_weighted cfm ~taken_prob:0.5);
  (* biased: the common side is useful more often *)
  let u =
    Cost_model.useless_insts Cost_model.Edge_weighted cfm ~taken_prob:0.9
  in
  check (Alcotest.float 1e-9) "still one side useless" 10. u

(* Regression: per-CFM merge probabilities can overlap and sum above 1;
   one dpred episode merges at most once, so the useless-instruction
   term must cap the cumulative probability exactly like the unmerged
   term does (Eq. 17). *)
let test_dpred_overhead_multi_cfm_clamped () =
  let p = Params.default in
  let c1 = synthetic_cfm ~insts:10 ~merge_prob:0.7 in
  let c2 = synthetic_cfm ~insts:10 ~merge_prob:0.6 in
  let two =
    Cost_model.dpred_overhead p Cost_model.Edge_weighted [ c1; c2 ]
      ~taken_prob:0.5
  in
  (* both CFM points have 10 useless instructions, the probabilities
     cap at 0.7 + 0.3: merged = 10, overhead = 10 / fetch_width, no
     unmerged term. The uncapped sum would give 1.3 * 10 / 8. *)
  check (Alcotest.float 1e-9) "capped at one merge per entry"
    (10. /. float_of_int p.Params.fetch_width)
    two;
  (* identical to a single always-merging CFM point of the same size *)
  let one =
    Cost_model.dpred_overhead p Cost_model.Edge_weighted
      [ synthetic_cfm ~insts:10 ~merge_prob:1.0 ]
      ~taken_prob:0.5
  in
  check (Alcotest.float 1e-9) "= single exact CFM" one two

let test_loop_cost_model () =
  let p = Params.default in
  (* late-exit dominated -> negative cost (profitable) *)
  let profitable =
    Cost_model.loop_cost p ~n_body:10 ~n_select:2 ~dpred_iter:3.
      ~extra_iter:1. ~p_correct:0.2 ~p_early:0.05 ~p_late:0.7 ~p_noexit:0.05
  in
  check Alcotest.bool "late-exit-heavy loop profitable" true (profitable < 0.);
  (* no late exits -> pure overhead *)
  let hopeless =
    Cost_model.loop_cost p ~n_body:10 ~n_select:2 ~dpred_iter:3.
      ~extra_iter:1. ~p_correct:0.5 ~p_early:0.25 ~p_late:0. ~p_noexit:0.25
  in
  check Alcotest.bool "no-late-exit loop unprofitable" true (hopeless > 0.)

(* Pin the four-case breakdown of Eq. 20 with Params.default
   (fetch_width 8, misp_penalty 25), n_body 10, n_select 2,
   dpred_iter 3, extra_iter 1:
     ovh_sel  = 2 * 3 / 8        = 0.75
     ovh_late = 10 * 1 / 8 + ovh_sel = 2.0
   correct / early pay only select-µops; late-exit pays ovh_late but
   saves the flush; no-exit pays the same useless extra-iteration
   fetches as late-exit *and* still flushes. *)
let test_loop_cost_four_cases () =
  let p = Params.default in
  let cost ~p_correct ~p_early ~p_late ~p_noexit =
    Cost_model.loop_cost p ~n_body:10 ~n_select:2 ~dpred_iter:3.
      ~extra_iter:1. ~p_correct ~p_early ~p_late ~p_noexit
  in
  check (Alcotest.float 1e-9) "correct: select-µops only" 0.75
    (cost ~p_correct:1. ~p_early:0. ~p_late:0. ~p_noexit:0.);
  check (Alcotest.float 1e-9) "early-exit: select-µops only" 0.75
    (cost ~p_correct:0. ~p_early:1. ~p_late:0. ~p_noexit:0.);
  check (Alcotest.float 1e-9) "late-exit: NOPed iterations - flush"
    (2.0 -. 25.0)
    (cost ~p_correct:0. ~p_early:0. ~p_late:1. ~p_noexit:0.);
  check (Alcotest.float 1e-9) "no-exit: NOPed iterations, flush kept" 2.0
    (cost ~p_correct:0. ~p_early:0. ~p_late:0. ~p_noexit:1.);
  check (Alcotest.float 1e-9) "mixture is the probability blend"
    ((0.2 *. 0.75) +. (0.05 *. 0.75) +. (0.7 *. (2.0 -. 25.0))
    +. (0.05 *. 2.0))
    (cost ~p_correct:0.2 ~p_early:0.05 ~p_late:0.7 ~p_noexit:0.05)

(* ---------- annotation serialisation ---------- *)

let test_annotation_round_trip () =
  List.iter
    (fun program ->
      let linked = Linked.link program in
      let profile =
        Dmp_profile.Profile.collect linked
          ~input:(Helpers.uniform_input 2100)
      in
      let ann = Select.run linked profile in
      match Annotation.of_string (Annotation.to_string ann) with
      | Error m -> Alcotest.fail m
      | Ok ann' ->
          check Alcotest.(list int) "same diverge branches"
            (Annotation.diverge_addrs ann)
            (Annotation.diverge_addrs ann');
          List.iter
            (fun addr ->
              let d = Option.get (Annotation.find ann addr) in
              let d' = Option.get (Annotation.find ann' addr) in
              check Alcotest.bool "same kind" true
                (d.Annotation.kind = d'.Annotation.kind);
              check Alcotest.bool "same flags" true
                (d.Annotation.always_predicate = d'.Annotation.always_predicate
                && d.Annotation.return_cfm = d'.Annotation.return_cfm);
              check Alcotest.int "same cfm count"
                (List.length d.Annotation.cfms)
                (List.length d'.Annotation.cfms))
            (Annotation.diverge_addrs ann))
    [
      Helpers.simple_hammock_program ();
      Helpers.freq_hammock_program ();
      Helpers.data_loop_program ();
      Helpers.ret_cfm_program ();
    ]

(* ---------- compiled-annotation fingerprint ---------- *)

let compiled_of linked ann = Annotation.compile ~size:(Linked.size linked) ann

(* Rebuild an annotation from its diverge branches, optionally reversing
   insertion order or rewriting each branch on the way. *)
let rebuild ?(rev = false) ?(map = fun d -> d) ann =
  let ds = Annotation.fold (fun d acc -> map d :: acc) ann [] in
  let ds = if rev then ds else List.rev ds in
  let a = Annotation.empty () in
  List.iter (Annotation.add a) ds;
  a

let test_fingerprint_properties () =
  let linked = Linked.link (Helpers.freq_hammock_program ()) in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 2100)
  in
  let ann = Select.run linked profile in
  check Alcotest.bool "selection is non-empty" true
    (Annotation.diverge_addrs ann <> []);
  let fp a = Annotation.Compiled.fingerprint (compiled_of linked a) in
  let base = fp ann in
  check Alcotest.string "insertion order is irrelevant" base
    (fp (rebuild ~rev:true ann));
  (* Selection metadata the simulator never reads must be invisible:
     merge_prob, exact, avg_iterations. *)
  let meta =
    rebuild ann ~map:(fun d ->
        {
          d with
          Annotation.cfms =
            List.map
              (fun c ->
                {
                  c with
                  Annotation.merge_prob = 1.0 -. (c.Annotation.merge_prob /. 2.0);
                  exact = not c.Annotation.exact;
                })
              d.Annotation.cfms;
          loop =
            Option.map
              (fun l ->
                { l with Annotation.avg_iterations = l.Annotation.avg_iterations +. 7.0 })
              d.Annotation.loop;
        })
  in
  check Alcotest.string "selection metadata is invisible" base (fp meta);
  check Alcotest.bool "Compiled.equal agrees with the fingerprint" true
    (Annotation.Compiled.equal (compiled_of linked ann) (compiled_of linked meta));
  (* Anything the simulator does read must change the fingerprint. *)
  let tweaked =
    rebuild ann ~map:(fun d ->
        {
          d with
          Annotation.cfms =
            List.map
              (fun c ->
                { c with Annotation.select_uops = c.Annotation.select_uops + 1 })
              d.Annotation.cfms;
          return_cfm = not d.Annotation.return_cfm;
        })
  in
  check Alcotest.bool "behavioural change is visible" true (base <> fp tweaked);
  check Alcotest.bool "Compiled.equal rejects it" false
    (Annotation.Compiled.equal (compiled_of linked ann) (compiled_of linked tweaked));
  let dropped =
    let keep = List.hd (Annotation.diverge_addrs ann) in
    let a = Annotation.empty () in
    Annotation.fold
      (fun d () -> if d.Annotation.branch_addr <> keep then Annotation.add a d)
      ann ();
    a
  in
  check Alcotest.bool "dropping a diverge branch is visible" true
    (base <> fp dropped)

let test_annotation_parse_errors () =
  List.iter
    (fun text ->
      match Annotation.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error: %s" text)
    [ "12 bogus\n"; "x simple\n"; "12 simple cfm=1:2\n"; "12\n" ]

(* ---------- ablation knobs ---------- *)

(* Both sides of the entry branch split twice and reach the merge
   blocks m1..m4, each first-arrival. The profile sends a side to m1,
   m2, m3 and m4 with probability 0.42, 0.28, 0.18 and 0.12, so the most
   probable merge point has the lowest block index of the four. *)
let four_merge_points () =
  let f = B.func "main" in
  let c = reg 1 in
  B.branch f Term.Ne c (B.imm 0) ~target:"t" ();
  let side s =
    B.label f s;
    B.branch f Term.Ne c (B.imm 0) ~target:(s ^ "b") ();
    B.label f (s ^ "a");
    B.branch f Term.Ne c (B.imm 0) ~target:"m2" ();
    B.label f (s ^ "a1");
    B.jump f "m1";
    B.label f (s ^ "b");
    B.branch f Term.Ne c (B.imm 0) ~target:"m4" ();
    B.label f (s ^ "b1");
    B.jump f "m3"
  in
  side "f";
  side "t";
  List.iter
    (fun m ->
      B.label f m;
      B.jump f "exit")
    [ "m1"; "m2"; "m3"; "m4" ];
  B.label f "exit";
  B.halt f;
  let func = B.finish f in
  let linked = Linked.link (Program.of_funcs_exn ~main:"main" [ func ]) in
  let index label =
    let rec go i =
      if (Func.block func i).Block.label = label then i else go (i + 1)
    in
    go 0
  in
  (* (label, executed, taken): a split goes to its "a" half with
     probability 0.7, and an "a" or "b" half falls through with
     probability 0.6. *)
  let branches =
    List.map
      (fun (label, executed, taken) ->
        ( Context.branch_addr' linked ~func:0 ~block:(index label),
          { Dmp_profile.Profile.executed; taken; mispredicted = 0 } ))
      [ ("entry", 100, 50);
        ("f", 100, 30); ("fa", 70, 28); ("fb", 30, 12);
        ("t", 100, 30); ("ta", 70, 28); ("tb", 30, 12) ]
  in
  let block_counts =
    Array.map
      (fun blocks -> Array.make (Array.length blocks) 0)
      linked.Linked.block_addr
  in
  let profile =
    Dmp_profile.Profile.of_raw linked
      (Dmp_profile.Profile.make_raw ~branches ~block_counts ~retired:1000)
  in
  (linked, profile, List.map index [ "m1"; "m2"; "m3"; "m4" ])

let test_ablation_knobs () =
  let linked = Linked.link (Helpers.freq_hammock_program ()) in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 2100)
  in
  (* all-defs select counting must never be below the liveness count *)
  let selects params =
    let config = { Select.all_heuristic with Select.params } in
    let ann = Select.run ~config linked profile in
    Annotation.fold
      (fun d acc ->
        acc
        + List.fold_left
            (fun a (c : Annotation.cfm) -> a + c.Annotation.select_uops)
            0 d.Annotation.cfms)
      ann 0
  in
  let live = selects Params.default in
  let all = selects { Params.default with Params.live_selects = false } in
  check Alcotest.bool "liveness prunes selects" true (all >= live);
  (* chain reduction off still respects the CFM cap *)
  let config =
    { Select.all_heuristic with
      Select.params = { Params.default with Params.chain_reduction = false }
    }
  in
  let ann = Select.run ~config linked profile in
  Annotation.iter
    (fun d ->
      check Alcotest.bool "cfm cap without chains" true
        (List.length d.Annotation.cfms <= Params.default.Params.max_cfm))
    ann;
  (* ... and the cap keeps the most probable points. *)
  let linked, profile, merges = four_merge_points () in
  let ctx = Context.create ~params:config.Select.params linked profile in
  match Alg_freq.candidate_of_branch ctx ~func:0 ~block:0 with
  | None -> Alcotest.fail "no frequently-hammock candidate"
  | Some c ->
      check
        Alcotest.(list int)
        "cfm cap without chains keeps the most probable"
        (List.filteri (fun i _ -> i < Params.default.Params.max_cfm) merges)
        (List.map
           (fun (cfm : Candidate.cfm_candidate) -> cfm.Candidate.cfm_block)
           c.Candidate.cfms)

let test_two_d_filter_shrinks_annotation () =
  let linked = Linked.link (Helpers.simple_hammock_program ()) in
  (* constant input: the hammock is easy everywhere -> filtered out *)
  let input = Array.make 2100 2 in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let td = Dmp_profile.Two_d.collect ~num_slices:8 linked ~input in
  let plain = Select.run linked profile in
  let filtered = Select.run ~two_d:td linked profile in
  check Alcotest.bool "2D filter never grows the annotation" true
    (Annotation.count filtered <= Annotation.count plain)

(* ---------- simple selectors ---------- *)

let test_simple_selectors () =
  let linked = Linked.link (Helpers.freq_hammock_program ()) in
  let profile =
    Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 2100)
  in
  let every = Simple_select.run Simple_select.Every_br linked profile in
  let ifelse = Simple_select.run Simple_select.If_else linked profile in
  let high = Simple_select.run (Simple_select.High_bp 0.05) linked profile in
  let immediate = Simple_select.run Simple_select.Immediate linked profile in
  check Alcotest.bool "every-br covers the most" true
    (Annotation.count every >= Annotation.count high
     && Annotation.count every >= Annotation.count ifelse
     && Annotation.count every >= Annotation.count immediate);
  (* every-br marks exactly the branches executed during profiling *)
  let executed_branches =
    List.length
      (List.filter
         (fun a -> Dmp_profile.Profile.executed profile ~addr:a > 0)
         (Dmp_profile.Profile.branch_addrs profile))
  in
  check Alcotest.int "every-br count" executed_branches
    (Annotation.count every);
  (* random-50 is deterministic given the seed *)
  let r1 = Simple_select.run (Simple_select.Random_50 7) linked profile in
  let r2 = Simple_select.run (Simple_select.Random_50 7) linked profile in
  check Alcotest.(list int) "random deterministic"
    (Annotation.diverge_addrs r1) (Annotation.diverge_addrs r2)

(* ---------- exploration properties ---------- *)

let qcheck_explore_invariants =
  QCheck.Test.make ~name:"exploration invariants on random programs"
    ~count:30
    QCheck.(int_range 3 15)
    (fun n ->
      let st = Random.State.make [| n; 131 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let profile =
        Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 64)
      in
      let ctx = Context.create linked profile in
      let ok = ref true in
      for func = 0 to Context.num_fns ctx - 1 do
        let fn = Context.fn ctx func in
        for block = 0 to Dmp_cfg.Cfg.num_nodes fn.Context.cfg - 1 do
          match Dmp_cfg.Cfg.branch_successors fn.Context.cfg block with
          | None -> ()
          | Some (target, _) ->
              let r =
                Explore.explore ctx ~func ~start:target
                  ~stop_blocks:Explore.Int_set.empty ~structural:false
              in
              Hashtbl.iter
                (fun _ (reach : Explore.reach) ->
                  (* probabilities are probabilities *)
                  if reach.Explore.prob < -.1e-9
                     || reach.Explore.prob > 1. +. 1e-9
                  then ok := false;
                  (* the most frequent path is no longer than the longest *)
                  if reach.Explore.best_path_insts > reach.Explore.longest
                  then ok := false;
                  (* the expected length lies within [0, longest] *)
                  let avg = Explore.avg_insts reach in
                  if avg < -.1e-9
                     || avg > float_of_int reach.Explore.longest +. 1e-9
                  then ok := false)
                r.Explore.reaches
        done
      done;
      !ok)

(* ---------- selection invariants (property) ---------- *)

let qcheck_selection_invariants =
  QCheck.Test.make ~name:"selection invariants on random programs" ~count:30
    QCheck.(int_range 3 15)
    (fun n ->
      let st = Random.State.make [| n; 91 |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let profile =
        Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 64)
      in
      let ann = Select.run linked profile in
      Annotation.fold
        (fun d ok ->
          ok
          && List.length d.Annotation.cfms <= Params.default.Params.max_cfm
          && Linked.is_conditional_branch linked d.Annotation.branch_addr
          && List.for_all
               (fun (c : Annotation.cfm) ->
                 c.Annotation.merge_prob >= 0.
                 && c.Annotation.merge_prob <= 1.
                 && c.Annotation.select_uops >= 0)
               d.Annotation.cfms)
        ann true)

(* ---------- Annotation.compile edge cases ---------- *)

(* The compiled per-address table must agree with a straightforward
   list-based interpretation of the annotation, even on malformed CFM
   lists: duplicates (last declaration wins), unsorted addresses, a
   negative-address return pseudo-entry, and a diverge branch whose
   address lies outside the image entirely. *)
let test_compile_edge_cases () =
  let mk_cfm addr selects =
    { Annotation.cfm_addr = addr; exact = false; merge_prob = 0.5;
      select_uops = selects }
  in
  let messy =
    { Annotation.branch_addr = 10; kind = Annotation.Frequently_hammock;
      cfms = [ mk_cfm 30 2; mk_cfm 20 1; mk_cfm 30 7; mk_cfm (-1) 3 ];
      return_cfm = true; always_predicate = false; loop = None }
  in
  let defaulted =
    { Annotation.branch_addr = 12; kind = Annotation.Simple_hammock;
      cfms = []; return_cfm = true; always_predicate = false; loop = None }
  in
  let absent =
    { messy with Annotation.branch_addr = 60 }
  in
  let ann = Annotation.empty () in
  Annotation.add ann messy;
  Annotation.add ann defaulted;
  Annotation.add ann absent;
  let size = 50 in
  let table = Annotation.compile ~size ann in
  check Alcotest.int "one slot per address" size (Array.length table);
  Array.iteri
    (fun a slot ->
      check Alcotest.bool
        (Printf.sprintf "slot %d occupancy" a)
        (a = 10 || a = 12)
        (slot <> None))
    table;
  let c = Option.get table.(10) in
  (* list-based reference: membership ignores the return pseudo-entry;
     duplicates resolve to the last declaration *)
  let ref_is_cfm a =
    List.exists
      (fun (m : Annotation.cfm) -> m.Annotation.cfm_addr = a)
      messy.Annotation.cfms
    && a >= 0
  in
  let ref_selects a =
    if a < 0 then 0
    else
      List.fold_left
        (fun acc (m : Annotation.cfm) ->
          if m.Annotation.cfm_addr = a then m.Annotation.select_uops else acc)
        0 messy.Annotation.cfms
  in
  for a = 0 to size - 1 do
    check Alcotest.bool
      (Printf.sprintf "is_cfm %d agrees with the list path" a)
      (ref_is_cfm a) (Annotation.is_cfm c a);
    check Alcotest.int
      (Printf.sprintf "cfm_selects %d agrees with the list path" a)
      (ref_selects a)
      (Annotation.cfm_selects c a)
  done;
  check Alcotest.(array int) "addresses sorted, duplicate collapsed"
    [| 20; 30 |] c.Annotation.c_cfm_addrs;
  check Alcotest.(array int) "selects parallel, last declaration wins"
    [| 1; 7 |] c.Annotation.c_cfm_selects;
  check Alcotest.int "return selects from the pseudo-entry" 3
    c.Annotation.c_ret_selects;
  let d = Option.get table.(12) in
  check Alcotest.int "return selects default when undeclared" 4
    d.Annotation.c_ret_selects;
  check Alcotest.bool "empty CFM list has no members" false
    (Annotation.is_cfm d 12)

(* ---------- Section 5.2 loop-threshold boundaries ---------- *)

(* STATIC_LOOP_SIZE = 30, DYNAMIC_LOOP_SIZE = 80, LOOP_ITER = 15: each
   limit is inclusive — exactly at the limit selects, one over does
   not. The avg_iterations values are exact binary floats, so the
   dynamic product is computed without rounding. *)
let test_loop_threshold_boundaries () =
  let p = Params.default in
  check Alcotest.int "STATIC_LOOP_SIZE" 30 p.Params.static_loop_size;
  check Alcotest.int "DYNAMIC_LOOP_SIZE" 80 p.Params.dynamic_loop_size;
  check Alcotest.int "LOOP_ITER" 15 p.Params.loop_iter;
  let mk ~body ~avg =
    { Loop_select.func = 0; block = 0; branch_addr = 0; body_insts = body;
      avg_iterations = avg; exit_target = 1; select_uops = 0;
      executed = 100; mispredicted = 10 }
  in
  let case name expected ~body ~avg =
    check Alcotest.bool name expected
      (Loop_select.passes_heuristics p (mk ~body ~avg))
  in
  case "static: one under" true ~body:29 ~avg:1.0;
  case "static: exactly at" true ~body:30 ~avg:1.0;
  case "static: one over" false ~body:31 ~avg:1.0;
  case "dynamic: one under (8 x 9.875 = 79)" true ~body:8 ~avg:9.875;
  case "dynamic: exactly at (8 x 10 = 80)" true ~body:8 ~avg:10.0;
  case "dynamic: one over (8 x 10.125 = 81)" false ~body:8 ~avg:10.125;
  case "iterations: one under" true ~body:5 ~avg:14.0;
  case "iterations: exactly at" true ~body:5 ~avg:15.0;
  case "iterations: over" false ~body:5 ~avg:15.5

let () =
  Alcotest.run "dmp_core"
    [
      ( "alg-exact",
        [
          Alcotest.test_case "simple hammock" `Quick
            test_exact_simple_hammock;
          Alcotest.test_case "nested hammock" `Quick
            test_exact_nested_hammock;
          Alcotest.test_case "rejects large" `Quick test_exact_rejects_large;
        ] );
      ( "alg-freq",
        [
          Alcotest.test_case "finds approximate CFM" `Quick
            test_freq_hammock_found;
          Alcotest.test_case "min merge prob" `Quick
            test_freq_respects_min_merge_prob;
          Alcotest.test_case "max cfm cap" `Quick test_freq_max_cfm_cap;
          Alcotest.test_case "chain reduction" `Quick test_chain_reduction;
        ] );
      ( "optimisations",
        [
          Alcotest.test_case "return CFM" `Quick test_return_cfm;
          Alcotest.test_case "short hammock always" `Quick
            test_short_hammock_always;
          Alcotest.test_case "loop boundaries" `Quick
            test_loop_selection_boundaries;
          Alcotest.test_case "loop static size" `Quick
            test_loop_static_size_filter;
          Alcotest.test_case "loop threshold boundaries" `Quick
            test_loop_threshold_boundaries;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "monotone in size" `Quick
            test_cost_monotone_in_size;
          Alcotest.test_case "monotone in merge prob" `Quick
            test_cost_monotone_in_merge_prob;
          Alcotest.test_case "selection decision" `Quick
            test_cost_select_decision;
          Alcotest.test_case "useless insts" `Quick test_useless_insts;
          Alcotest.test_case "multi-CFM merge prob clamped" `Quick
            test_dpred_overhead_multi_cfm_clamped;
          Alcotest.test_case "loop cost" `Quick test_loop_cost_model;
          Alcotest.test_case "loop cost four cases" `Quick
            test_loop_cost_four_cases;
        ] );
      ( "simple selectors",
        [ Alcotest.test_case "behaviour" `Quick test_simple_selectors ] );
      ( "ablations",
        [
          Alcotest.test_case "knobs" `Quick test_ablation_knobs;
          Alcotest.test_case "2D filter" `Quick
            test_two_d_filter_shrinks_annotation;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "round trip" `Quick test_annotation_round_trip;
          Alcotest.test_case "parse errors" `Quick
            test_annotation_parse_errors;
          Alcotest.test_case "fingerprint properties" `Quick
            test_fingerprint_properties;
          Alcotest.test_case "compile edge cases" `Quick
            test_compile_edge_cases;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_explore_invariants;
          QCheck_alcotest.to_alcotest qcheck_selection_invariants;
        ] );
    ]
