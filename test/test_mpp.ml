(* Merge-point prediction subsystem: the MPT's unit behavior, its
   determinism and snapshot round-trip, the oracle-vs-IPOSDOM property,
   and the invariant checker's validation of predicted merge points. *)

open Dmp_ir
open Dmp_uarch
module Mpt = Dmp_mpp.Mpt
module Oracle = Dmp_mpp.Oracle
module Invariants = Dmp_check.Invariants
module D = Dmp_check.Diagnostic

let check = Alcotest.check

let image_of program ~input =
  let linked = Linked.link program in
  let tr = Dmp_exec.Trace.capture linked ~input in
  (linked, Dmp_exec.Image.of_trace tr)

let run_dynamic ?(mcfg = Mpt.small) linked img =
  let sim = Sim.create_image ~config:(Config.dmp_dynamic mcfg) linked img in
  let stats = Sim.run_to_completion sim in
  (stats, Sim.merge_predictions sim)

(* ---------- MPT unit behavior ---------- *)

(* Drive the table directly with a synthetic hammock: branch at 100,
   taken path 200,201, not-taken path 300,301, merge at 400. *)
let feed_hammock m ~times =
  for i = 0 to times - 1 do
    let taken = i mod 2 = 0 in
    Mpt.observe_branch m ~addr:100 ~taken;
    if taken then begin
      Mpt.observe m ~addr:200;
      Mpt.observe m ~addr:201
    end
    else begin
      Mpt.observe m ~addr:300;
      Mpt.observe m ~addr:301
    end;
    for k = 0 to 20 do
      Mpt.observe m ~addr:(400 + k)
    done
  done

let test_hammock_converges () =
  let m = Mpt.create Mpt.small in
  check Alcotest.(option int) "cold table answers nothing" None
    (Mpt.predict m ~addr:100);
  feed_hammock m ~times:8;
  check Alcotest.(option int) "learns the reconvergence point" (Some 400)
    (Mpt.predict m ~addr:100);
  check Alcotest.bool "prediction tabled" true
    (List.exists
       (fun (b, mg, conf) ->
         b = 100 && mg = 400 && conf >= Mpt.small.Mpt.conf_threshold)
       (Mpt.predictions m))

let test_call_depth_filter () =
  (* The callee's PCs retire between the branch and the merge but at
     depth 1: they must not become merge candidates. *)
  let m = Mpt.create Mpt.small in
  for i = 0 to 7 do
    let taken = i mod 2 = 0 in
    Mpt.observe_branch m ~addr:100 ~taken;
    Mpt.observe m ~addr:(if taken then 200 else 300);
    Mpt.observe_call m ~addr:(if taken then 201 else 301);
    (* same callee body on both sides — common PCs, wrong depth *)
    Mpt.observe m ~addr:900;
    Mpt.observe m ~addr:901;
    Mpt.observe_ret m;
    for k = 0 to 20 do
      Mpt.observe m ~addr:(400 + k)
    done
  done;
  check Alcotest.(option int) "callee body is not a merge point"
    (Some 400) (Mpt.predict m ~addr:100)

let test_export_import_roundtrip () =
  let m = Mpt.create Mpt.small in
  feed_hammock m ~times:5;
  let snap = Mpt.export m in
  let m' = Mpt.create Mpt.small in
  Mpt.import m' snap;
  check
    Alcotest.(list (triple int int int))
    "predictions survive the round-trip" (Mpt.predictions m)
    (Mpt.predictions m');
  check Alcotest.bool "export of the restored table is equal" true
    (Mpt.export m' = snap);
  (* ...and the restored table keeps learning identically. *)
  feed_hammock m ~times:3;
  feed_hammock m' ~times:3;
  check Alcotest.bool "training continues identically" true
    (Mpt.export m' = Mpt.export m)

(* A tracker delivered while an older one is still open (here at call
   depth 1) keeps its queue slot until the older one closes. A snapshot
   taken then must restore it delivered and still holding the slot: the
   restored table continues exactly like the original. [full] delivers
   it by a full window, otherwise by its own branch re-executing. *)
let test_export_keeps_delivered_trackers () =
  List.iter
    (fun full ->
      let m = Mpt.create Mpt.small in
      Mpt.observe_branch m ~addr:1 ~taken:true;
      Mpt.observe_call m ~addr:2;
      Mpt.observe_branch m ~addr:3 ~taken:true;
      if full then
        for k = 0 to Mpt.small.Mpt.window - 1 do
          Mpt.observe m ~addr:(100 + k)
        done
      else begin
        Mpt.observe m ~addr:100;
        Mpt.observe_branch m ~addr:3 ~taken:false
      end;
      let m' = Mpt.create Mpt.small in
      Mpt.import m' (Mpt.export m);
      let continue m =
        Mpt.observe m ~addr:200;
        Mpt.observe_branch m ~addr:4 ~taken:true;
        Mpt.observe_branch m ~addr:5 ~taken:false;
        Mpt.observe_ret m;
        for k = 0 to 5 do
          Mpt.observe m ~addr:(300 + k)
        done
      in
      continue m;
      continue m';
      check Alcotest.bool
        (Printf.sprintf "restored table continues identically (full=%b)" full)
        true
        (Mpt.export m' = Mpt.export m))
    [ true; false ]

let test_import_rejects_geometry () =
  let m = Mpt.create Mpt.small in
  feed_hammock m ~times:3;
  let snap = Mpt.export m in
  let other = Mpt.create Mpt.default in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Mpt.import: geometry mismatch") (fun () ->
      Mpt.import other snap)

(* ---------- differential: hashed set = pairwise reference ---------- *)

(* One observation of a stream driven through [Mpt] and the pairwise
   copy in mpt_ref.ml, or a snapshot moved between them. *)
type obs =
  | Observe of int
  | Branch of int * bool
  | Call of int
  | Ret
  | Reload  (* export the reference, import into both *)
  | Scramble of int array
      (* the reference's export with every recorded path PC replaced by
         these values (cycled), imported into both: [import] checks
         lengths but not PCs *)

let pp_obs = function
  | Observe a -> Printf.sprintf "Observe %d" a
  | Branch (a, t) -> Printf.sprintf "Branch (%d, %b)" a t
  | Call a -> Printf.sprintf "Call %d" a
  | Ret -> "Ret"
  | Reload -> "Reload"
  | Scramble pcs ->
      Printf.sprintf "Scramble [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int pcs)))

(* PCs: a small pool that repeats; a pool of four PCs per slot of the
   table's scratch set (at least [2 * window] slots, so [8 * window]
   PCs), where by pigeonhole most PCs share a home slot with another;
   and extreme values. Hammock fragments (a branch, a short arm, then a
   tail shared by both directions of that branch) make the two
   directions' paths meet, so merge points are found, confirmed and
   predicted; calls inside arms nest the call depth. *)
let obs_gen (cfg : Mpt.config) =
  let open QCheck.Gen in
  let pc =
    frequency
      [
        (6, int_bound 40);
        (3, map (fun k -> 1000 + k) (int_bound ((8 * cfg.Mpt.window) - 1)));
        (1, oneofl [ -1; -2; min_int; max_int; 1 lsl 40 ]);
      ]
  in
  let single =
    frequency
      [
        (6, map (fun a -> [ Observe a ]) pc);
        (3, map2 (fun a t -> [ Branch (a, t) ]) (int_bound 12) bool);
        (1, map (fun a -> [ Call a ]) pc);
        (1, return [ Ret ]);
        (1, return [ Reload ]);
        ( 1,
          map (fun l -> [ Scramble (Array.of_list l) ]) (list_size (1 -- 8) pc)
        );
      ]
  in
  let arm =
    list_size (0 -- 6)
      (frequency
         [
           (5, map (fun a -> [ Observe a ]) pc);
           (1, map2 (fun c body -> (Call c :: body) @ [ Ret ]) pc
                 (list_size (0 -- 3) (map (fun a -> Observe a) pc)));
         ])
  in
  let hammock =
    int_bound 7 >>= fun b ->
    bool >>= fun taken ->
    arm >>= fun arm ->
    int_bound (cfg.Mpt.window + 8) >>= fun tail ->
    return
      ((Branch (b, taken) :: List.concat arm)
      @ List.init tail (fun k -> Observe (500 + (50 * b) + k)))
  in
  map List.concat
    (list_size (1 -- 30) (frequency [ (2, single); (3, hammock) ]))

(* Overwrite every recorded path PC of an export (header, then per
   entry six scalars and the two [window]-long paths). *)
let scramble (cfg : Mpt.config) snap pcs =
  let w = cfg.Mpt.window in
  let entries = (1 lsl cfg.Mpt.log2_sets) * cfg.Mpt.ways in
  let n = ref 0 in
  for e = 0 to entries - 1 do
    for k = 0 to (2 * w) - 1 do
      snap.(9 + (e * (6 + (2 * w))) + 6 + k) <- pcs.(!n mod Array.length pcs);
      incr n
    done
  done;
  snap

let qcheck_mpt_equals_reference =
  let configs = [ ("default", Mpt.default); ("small", Mpt.small) ] in
  QCheck.Test.make ~name:"MPT = pairwise reference on random streams"
    ~count:40
    (QCheck.make
       ~print:(fun (c, obs) ->
         Printf.sprintf "%s: %s" (fst (List.nth configs c))
           (String.concat "; " (List.map pp_obs obs)))
       QCheck.Gen.(
         int_bound 1 >>= fun c ->
         map (fun o -> (c, o)) (obs_gen (snd (List.nth configs c)))))
    (fun (c, obs) ->
      let cfg = snd (List.nth configs c) in
      let m = Mpt.create cfg and r = Mpt_ref.create cfg in
      List.for_all
        (fun o ->
          (match o with
          | Observe addr ->
              Mpt.observe m ~addr;
              Mpt_ref.observe r ~addr
          | Branch (addr, taken) ->
              Mpt.observe_branch m ~addr ~taken;
              Mpt_ref.observe_branch r ~addr ~taken
          | Call addr ->
              Mpt.observe_call m ~addr;
              Mpt_ref.observe_call r ~addr
          | Ret ->
              Mpt.observe_ret m;
              Mpt_ref.observe_ret r
          | Reload ->
              let snap = Mpt_ref.export r in
              Mpt.import m snap;
              Mpt_ref.import r snap
          | Scramble pcs ->
              let snap = scramble cfg (Mpt_ref.export r) pcs in
              Mpt.import m snap;
              Mpt_ref.import r snap);
          let predictions_agree =
            List.for_all
              (fun addr -> Mpt.predict m ~addr = Mpt_ref.predict r ~addr)
              (List.init 13 Fun.id)
          in
          (predictions_agree && Mpt.export m = Mpt_ref.export r)
          || QCheck.Test.fail_reportf "diverged after %s" (pp_obs o))
        obs)

(* ---------- oracle = IPOSDOM ---------- *)

(* Independent recomputation: for every conditional branch of every
   function, the oracle must report exactly block_start(ipostdom) — and
   nothing else — no matter what profile the analysis context carries. *)
let iposdom_pairs linked ~input =
  let profile = Dmp_profile.Profile.collect linked ~input in
  let ctx = Dmp_core.Context.create linked profile in
  let acc = ref [] in
  for func = 0 to Dmp_core.Context.num_fns ctx - 1 do
    let fn = Dmp_core.Context.fn ctx func in
    let cfg = fn.Dmp_core.Context.cfg in
    for block = 0 to Dmp_cfg.Cfg.num_nodes cfg - 1 do
      if Dmp_cfg.Cfg.is_conditional cfg block then
        match Dmp_cfg.Postdom.ipostdom fn.Dmp_core.Context.postdom block with
        | None -> ()
        | Some ip ->
            acc :=
              ( Dmp_core.Context.branch_addr ctx ~func ~block,
                Dmp_core.Context.block_start_addr ctx ~func ~block:ip )
              :: !acc
    done
  done;
  List.sort compare !acc

let qcheck_oracle_is_iposdom =
  QCheck.Test.make ~name:"oracle merge points equal IPOSDOM" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      List.for_all
        (fun (program, input) ->
          let linked = Linked.link program in
          Oracle.merge_points linked = iposdom_pairs linked ~input)
        (Helpers.generated_programs ~seed 3))

let test_oracle_annotation_subset () =
  let linked =
    Linked.link (Helpers.simple_hammock_program ~iters:200 ())
  in
  let pts = Oracle.merge_points linked in
  let ann = Oracle.annotation linked in
  check Alcotest.bool "oracle annotates something here" true
    (Dmp_core.Annotation.count ann > 0);
  Dmp_core.Annotation.fold
    (fun d () ->
      match d.Dmp_core.Annotation.cfms with
      | [ cfm ] ->
          check Alcotest.bool "annotated CFM is the IPOSDOM pair" true
            (List.mem
               (d.Dmp_core.Annotation.branch_addr, cfm.Dmp_core.Annotation.cfm_addr)
               pts);
          check Alcotest.bool "oracle CFMs are exact" true
            cfm.Dmp_core.Annotation.exact
      | _ -> Alcotest.fail "oracle diverge without exactly one CFM")
    ann ()

(* ---------- predictor inside the simulator ---------- *)

let test_predictor_determinism () =
  let linked, img =
    image_of
      (Helpers.freq_hammock_program ~iters:600 ())
      ~input:(Helpers.uniform_input 800)
  in
  let s1, p1 = run_dynamic linked img in
  let s2, p2 = run_dynamic linked img in
  check Alcotest.string "statistics byte-identical"
    (Marshal.to_string s1 [])
    (Marshal.to_string s2 []);
  check Alcotest.(list (triple int int int)) "predictions identical" p1 p2

let test_predictor_on_hammock () =
  let linked, img =
    image_of
      (Helpers.simple_hammock_program ~iters:2000 ())
      ~input:(Helpers.uniform_input 2000)
  in
  let stats, preds = run_dynamic linked img in
  check Alcotest.bool "the predictor answered" true
    (stats.Stats.mpp_predicted > 0);
  check Alcotest.bool "dpred episodes entered" true
    (stats.Stats.dpred_hammock_entries > 0);
  check Alcotest.bool "warm-up point recorded" true
    (stats.Stats.mpp_warmup_retired > 0);
  (* On a clean hammock, every confident tabled merge point is the
     branch's true IPOSDOM. *)
  let oracle = Oracle.merge_points linked in
  let threshold = Mpt.small.Mpt.conf_threshold in
  let confident =
    List.filter (fun (_, _, conf) -> conf >= threshold) preds
  in
  check Alcotest.bool "some entries reached the threshold" true
    (confident <> []);
  List.iter
    (fun (b, m, _) ->
      match List.assoc_opt b oracle with
      | Some ip ->
          check Alcotest.int
            (Printf.sprintf "prediction for branch %d is its IPOSDOM" b)
            ip m
      | None -> Alcotest.failf "prediction for unknown branch %d" b)
    confident

(* ---------- invariant checker over predictions ---------- *)

let qcheck_predictions_validate =
  QCheck.Test.make ~name:"predicted merge points validate against the CFG"
    ~count:6
    QCheck.(int_range 1 1_000)
    (fun seed ->
      List.for_all
        (fun (program, input) ->
          let linked, img = image_of program ~input in
          let _, preds = run_dynamic linked img in
          let ds = Invariants.check_predicted_merges linked preds in
          if D.has_errors ds then
            QCheck.Test.fail_reportf "prediction rejected: %a" D.pp
              (List.hd (D.errors ds))
          else true)
        (Helpers.generated_programs ~seed 2))

let test_checker_rules_fire () =
  let linked =
    Linked.link (Helpers.simple_hammock_program ~iters:50 ())
  in
  let has rule preds =
    List.exists
      (fun d -> d.D.rule = rule)
      (Invariants.check_predicted_merges linked preds)
  in
  let branch, merge =
    match Oracle.merge_points linked with
    | p :: _ -> p
    | [] -> Alcotest.fail "no oracle merge point"
  in
  check Alcotest.bool "valid pair accepted" false
    (D.has_errors (Invariants.check_predicted_merges linked [ (branch, merge, 2) ]));
  check Alcotest.bool "out-of-range merge" true
    (has "mpp-merge-out-of-range" [ (branch, -1, 2) ]);
  check Alcotest.bool "out-of-range branch" true
    (has "mpp-branch-out-of-range" [ (Linked.size linked, merge, 2) ]);
  check Alcotest.bool "non-conditional branch" true
    (has "mpp-branch-not-conditional" [ (Linked.entry_addr linked, merge, 2) ]);
  check Alcotest.bool "unreachable merge" true
    (has "mpp-merge-unreachable" [ (branch, Linked.entry_addr linked, 2) ])

let test_mutated_prediction_fails () =
  let linked, img =
    image_of
      (Helpers.simple_hammock_program ~iters:500 ())
      ~input:(Helpers.uniform_input 600)
  in
  let _, preds = run_dynamic linked img in
  check Alcotest.bool "clean predictions pass" false
    (D.has_errors (Invariants.check_predicted_merges linked preds));
  let mutated =
    match preds with
    | (b, _, c) :: rest -> (b, -1, c) :: rest
    | [] -> Alcotest.fail "expected at least one prediction"
  in
  check Alcotest.bool "corrupted prediction rejected" true
    (D.has_errors (Invariants.check_predicted_merges linked mutated))

let () =
  Alcotest.run "dmp_mpp"
    [
      ( "mpt",
        [
          Alcotest.test_case "hammock converges" `Quick
            test_hammock_converges;
          Alcotest.test_case "call-depth filter" `Quick
            test_call_depth_filter;
          Alcotest.test_case "export/import round-trip" `Quick
            test_export_import_roundtrip;
          Alcotest.test_case "import rejects geometry" `Quick
            test_import_rejects_geometry;
          Alcotest.test_case "export keeps delivered trackers" `Quick
            test_export_keeps_delivered_trackers;
          QCheck_alcotest.to_alcotest qcheck_mpt_equals_reference;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_oracle_is_iposdom;
          Alcotest.test_case "annotation is a gated IPOSDOM subset" `Quick
            test_oracle_annotation_subset;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "deterministic" `Quick
            test_predictor_determinism;
          Alcotest.test_case "predicts the hammock merge" `Quick
            test_predictor_on_hammock;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_predictions_validate;
          Alcotest.test_case "rules fire on crafted corruption" `Quick
            test_checker_rules_fire;
          Alcotest.test_case "mutated prediction fails" `Quick
            test_mutated_prediction_fails;
        ] );
    ]
