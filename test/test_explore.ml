(* Selection-cost tables: the path-exploration engine must return
   bitwise-identical results to the reference walk in explore_ref.ml
   (same DFS order, same max_paths cap, same float accumulation order),
   and Context.block_defs must keep its callee-expanded semantics. *)

open Dmp_ir
open Dmp_cfg
open Dmp_core
module B = Build
module Int_set = Explore.Int_set

let check = Alcotest.check
let reg = Reg.of_int

(* ---------- result comparison ---------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Name of the first field on which two reaches differ, if any. *)
let reach_diff (a : Explore.reach) (b : Explore.reach) =
  if not (same_float a.prob b.prob) then Some "prob"
  else if a.longest <> b.longest then Some "longest"
  else if not (same_float a.weighted_sum b.weighted_sum) then
    Some "weighted_sum"
  else if not (same_float a.best_path_prob b.best_path_prob) then
    Some "best_path_prob"
  else if a.best_path_insts <> b.best_path_insts then Some "best_path_insts"
  else if not (Int_set.equal a.blocks b.blocks) then Some "blocks"
  else if not (Int_set.equal a.defs b.defs) then Some "defs"
  else if a.max_cbr <> b.max_cbr then Some "max_cbr"
  else None

let result_diff (a : Explore.result) (b : Explore.result) =
  if a.truncated <> b.truncated then Some "truncated"
  else if a.capped <> b.capped then Some "capped"
  else
    match (a.ret, b.ret) with
    | Some _, None | None, Some _ -> Some "ret"
    | Some ra, Some rb when reach_diff ra rb <> None ->
        Option.map (( ^ ) "ret.") (reach_diff ra rb)
    | _ ->
        if Hashtbl.length a.reaches <> Hashtbl.length b.reaches then
          Some "reached blocks"
        else
          Hashtbl.fold
            (fun x ra acc ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match Hashtbl.find_opt b.reaches x with
                  | None -> Some (Printf.sprintf "block %d unreached" x)
                  | Some rb ->
                      Option.map
                        (Printf.sprintf "block %d %s" x)
                        (reach_diff ra rb)))
            a.reaches None

(* ---------- differential driver ---------- *)

type tally = { mutable compared : int; mutable capped : int; mutable multi : int }

let tally () = { compared = 0; capped = 0; multi = 0 }

(* For every conditional branch of every function, explore both sides
   in both modes with the IPOSDOM singleton as the stop set, then again
   with every block reached from both sides added (the Alg-freq phase-2
   shape), comparing the engine against the reference each time. Every
   structural walk also runs in its early-exit form, which must report
   an overflow exactly when the reference is truncated or capped, and
   otherwise the reference's result. *)
let compare_ctx ~label t ctx =
  for func = 0 to Context.num_fns ctx - 1 do
    let fn = Context.fn ctx func in
    for block = 0 to Cfg.num_nodes fn.Context.cfg - 1 do
      match Cfg.branch_successors fn.Context.cfg block with
      | None -> ()
      | Some (target, fall) ->
          let iposdom =
            match Postdom.ipostdom fn.Context.postdom block with
            | Some j -> Int_set.singleton j
            | None -> Int_set.empty
          in
          let run ~stops ~structural start =
            let want =
              Explore_ref.explore ctx ~func ~start ~stop_blocks:stops
                ~structural
            in
            let got =
              Explore.explore ctx ~func ~start ~stop_blocks:stops ~structural
            in
            t.compared <- t.compared + 1;
            if got.Explore.capped then t.capped <- t.capped + 1;
            let fail what =
              Alcotest.failf
                "%s: func %d branch %d side %d (structural=%b, %d stops): %s"
                label func block start structural (Int_set.cardinal stops)
                what
            in
            Option.iter
              (fun field -> fail (field ^ " differs"))
              (result_diff want got);
            (if structural then
               let overflow = want.Explore.truncated || want.Explore.capped in
               match
                 Explore.structural_within_bounds ctx ~func ~start
                   ~stop_blocks:stops
               with
               | None -> if not overflow then fail "early exit overflowed"
               | Some _ when overflow -> fail "early exit missed an overflow"
               | Some early ->
                   Option.iter
                     (fun field -> fail ("early exit: " ^ field ^ " differs"))
                     (result_diff want early));
            want
          in
          List.iter
            (fun structural ->
              let rt = run ~stops:iposdom ~structural target in
              let rnt = run ~stops:iposdom ~structural fall in
              let common =
                Hashtbl.fold
                  (fun x _ acc ->
                    if x <> block && Hashtbl.mem rnt.Explore.reaches x then
                      Int_set.add x acc
                    else acc)
                  rt.Explore.reaches Int_set.empty
              in
              let stops = Int_set.union common iposdom in
              if Int_set.cardinal stops > 1 then t.multi <- t.multi + 1;
              ignore (run ~stops ~structural target);
              ignore (run ~stops ~structural fall))
            [ false; true ]
    done
  done

let param_sets = [ ("default", Params.default); ("cost", Params.for_cost_model) ]

let compare_program ~label t ?(params = param_sets) linked profile =
  List.iter
    (fun (pname, params) ->
      compare_ctx ~label:(label ^ " " ^ pname) t
        (Context.create ~params linked profile))
    params

let generated_corpus seed = Helpers.generated_programs ~seed 200

let test_generated seed () =
  let t = tally () in
  List.iteri
    (fun i (program, input) ->
      let linked = Linked.link program in
      let profile = Dmp_profile.Profile.collect linked ~input in
      compare_program ~label:(Printf.sprintf "seed %d program %d" seed i) t
        linked profile)
    (generated_corpus seed);
  check Alcotest.bool "explorations compared" true (t.compared > 5000);
  check Alcotest.bool "multi-block stop sets exercised" true (t.multi > 100)

let test_benchmarks () =
  let t = tally () in
  List.iter
    (fun spec ->
      let linked = Dmp_workload.Spec.linked spec in
      let input = spec.Dmp_workload.Spec.input Dmp_workload.Input_gen.Reduced in
      let profile =
        Dmp_profile.Profile.collect ~max_insts:30_000 linked ~input
      in
      compare_program ~label:spec.Dmp_workload.Spec.name t linked profile)
    Dmp_workload.Registry.all;
  check Alcotest.bool "multi-block stop sets exercised" true (t.multi > 50)

(* A tiny path budget makes the cap fire mid-walk: which reaches were
   recorded before it depends on the DFS order, which this pins. *)
let test_small_cap () =
  let t = tally () in
  let params =
    [ ("max_paths=8", { Params.for_cost_model with Params.max_paths = 8 }) ]
  in
  List.iteri
    (fun i (program, input) ->
      let linked = Linked.link program in
      let profile = Dmp_profile.Profile.collect linked ~input in
      compare_program ~label:(Printf.sprintf "program %d" i) t ~params linked
        profile)
    (generated_corpus 1);
  List.iter
    (fun name ->
      let spec = Dmp_workload.Registry.find name in
      let linked = Dmp_workload.Spec.linked spec in
      let input = spec.Dmp_workload.Spec.input Dmp_workload.Input_gen.Reduced in
      let profile =
        Dmp_profile.Profile.collect ~max_insts:30_000 linked ~input
      in
      compare_program ~label:name t ~params linked profile)
    [ "gcc"; "li" ];
  check Alcotest.bool "the cap fired" true (t.capped > 500)

(* Fully irregular CFGs, including unreachable blocks and loops with no
   exit, which the motif corpus rarely produces. *)
let qcheck_random_programs =
  QCheck.Test.make ~name:"engine = reference on random programs" ~count:40
    QCheck.(pair (int_range 3 20) (int_range 0 1_000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let program = Helpers.random_program st ~nblocks:n in
      let linked = Linked.link program in
      let profile =
        Dmp_profile.Profile.collect linked ~input:(Helpers.uniform_input 64)
      in
      compare_program ~label:"random" (tally ()) linked profile;
      true)

(* ---------- absolute pin on selections ---------- *)

(* md5 over the compiled-annotation fingerprints of all 15
   [Variants.names] selection variants on the seed-1 corpus. The
   differential tests only compare the engine with the reference; this
   pins what the selectors make of the irregular CFGs the 17 benchmarks
   do not have. *)
let selections_digest = "fa8febef6cbc50ff8a08c00d143e14a0"

let test_selections_digest () =
  let module V = Dmp_experiments.Variants in
  let variants = List.map (fun n -> Option.get (V.of_string n)) V.names in
  check Alcotest.int "named variants" 15 (List.length variants);
  let b = Buffer.create 65536 in
  List.iter
    (fun (program, input) ->
      let linked = Linked.link program in
      let profile = Dmp_profile.Profile.collect linked ~input in
      let size = Linked.size linked in
      List.iter
        (fun v ->
          let ann = V.annotate v linked profile in
          Buffer.add_string b
            (Annotation.Compiled.fingerprint (Annotation.compile ~size ann));
          Buffer.add_char b '\n')
        variants)
    (generated_corpus 1);
  check Alcotest.string "selections of 200 programs" selections_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- Context.block_defs ---------- *)

(* main calls a -> b -> c (b has two blocks, one of them calling c), the
   mutually recursive p <-> q, and the self-recursive r. *)
let defs_program () =
  let c = B.func "c" in
  B.add c (reg 6) (reg 6) (B.imm 1);
  B.ret c;
  let b = B.func "b" in
  B.li b (reg 5) 0;
  B.branch b Term.Ne (reg 5) (B.imm 0) ~target:"x" ();
  B.label b "y";
  B.li b (reg 11) 1;
  B.ret b;
  B.label b "x";
  B.li b (reg 12) 2;
  B.call b "c";
  B.ret b;
  let a = B.func "a" in
  B.li a (reg 4) 1;
  B.call a "b";
  B.ret a;
  let p = B.func "p" in
  B.li p (reg 8) 0;
  B.call p "q";
  B.ret p;
  let q = B.func "q" in
  B.li q (reg 9) 0;
  B.call q "p";
  B.ret q;
  let r = B.func "r" in
  B.li r (reg 10) 0;
  B.call r "r";
  B.ret r;
  let main = B.func "main" in
  B.li main (reg 2) 0;
  B.call main "a";
  B.label main "m1";
  B.call main "p";
  B.label main "m2";
  B.call main "r";
  B.label main "m3";
  B.li main (reg 3) 1;
  B.halt main;
  Program.of_funcs_exn ~main:"main"
    (List.map B.finish [ main; a; b; c; p; q; r ])

(* Dominators, liveness and def sets do not depend on the profile, so
   an all-zero one will do (the program never runs). *)
let zero_profile_ctx linked =
  let block_counts =
    Array.map
      (fun blocks -> Array.make (Array.length blocks) 0)
      linked.Linked.block_addr
  in
  Context.create linked
    (Dmp_profile.Profile.of_raw linked
       (Dmp_profile.Profile.make_raw ~branches:[] ~block_counts ~retired:0))

let test_block_defs () =
  let linked = Linked.link (defs_program ()) in
  let ctx = zero_profile_ctx linked in
  let func name = Option.get (Program.find_func linked.Linked.program name) in
  let defs name block = Context.block_defs ctx ~func:(func name) ~block in
  let ints = Alcotest.(list int) in
  check ints "c" [ 6 ] (defs "c" 0);
  check ints "b entry" [ 5 ] (defs "b" 0);
  check ints "b y" [ 11 ] (defs "b" 1);
  check ints "b x calls c" [ 6; 12 ] (defs "b" 2);
  check ints "a: chain a -> b -> c" [ 4; 5; 6; 11; 12 ] (defs "a" 0);
  check ints "p: mutual recursion" [ 8; 9 ] (defs "p" 0);
  check ints "q: mutual recursion" [ 8; 9 ] (defs "q" 0);
  check ints "r: self recursion" [ 10 ] (defs "r" 0);
  check ints "main entry" [ 2; 4; 5; 6; 11; 12 ] (defs "main" 0);
  check ints "main m1" [ 8; 9 ] (defs "main" 1);
  check ints "main m2" [ 10 ] (defs "main" 2);
  check ints "main m3" [ 3 ] (defs "main" 3);
  check ints "region m1+m2" [ 8; 9; 10 ]
    (Context.region_defs ctx ~func:(func "main") [ 2; 1 ]);
  check ints "empty region" [] (Context.region_defs ctx ~func:(func "main") [])

(* Every block of every benchmark agrees with the rescanning reference. *)
let test_block_defs_benchmarks () =
  List.iter
    (fun spec ->
      let linked = Dmp_workload.Spec.linked spec in
      let ctx = zero_profile_ctx linked in
      for func = 0 to Context.num_fns ctx - 1 do
        for block = 0 to Cfg.num_nodes (Context.fn ctx func).Context.cfg - 1 do
          check
            Alcotest.(list int)
            (Printf.sprintf "%s func %d block %d" spec.Dmp_workload.Spec.name
               func block)
            (Explore_ref.block_defs ctx ~func ~block)
            (Context.block_defs ctx ~func ~block)
        done
      done)
    Dmp_workload.Registry.all

let () =
  Alcotest.run "dmp_explore"
    [
      ( "block-defs",
        [
          Alcotest.test_case "chain and recursion" `Quick test_block_defs;
          Alcotest.test_case "benchmarks = reference" `Quick
            test_block_defs_benchmarks;
        ] );
      ( "explore-differential",
        [
          Alcotest.test_case "generated seed 1" `Quick (test_generated 1);
          Alcotest.test_case "generated seed 2" `Quick (test_generated 2);
          Alcotest.test_case "benchmarks" `Quick test_benchmarks;
          Alcotest.test_case "max_paths 8" `Quick test_small_cap;
          QCheck_alcotest.to_alcotest qcheck_random_programs;
        ] );
      ( "selections",
        [ Alcotest.test_case "15 variants, seed 1" `Quick test_selections_digest ] );
    ]
