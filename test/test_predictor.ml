open Dmp_predictor

let check = Alcotest.check

(* ---------- History ---------- *)

let test_history () =
  let h = History.make 4 in
  let x = History.shift h History.empty ~taken:true in
  check Alcotest.bool "bit 0" true (History.bit h x 0);
  let x = History.shift h x ~taken:false in
  check Alcotest.bool "bit 0 now nt" false (History.bit h x 0);
  check Alcotest.bool "bit 1 taken" true (History.bit h x 1);
  (* length masking *)
  let x = ref History.empty in
  for _ = 1 to 10 do
    x := History.shift h !x ~taken:true
  done;
  check Alcotest.int "masked" 15 (History.fold h !x)

let train p outcomes =
  List.iter
    (fun (addr, taken) -> ignore (Perceptron.resolve p ~addr ~taken))
    outcomes

let accuracy p outcomes =
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun (addr, taken) ->
      if Perceptron.resolve p ~addr ~taken = taken then incr correct;
      incr total)
    outcomes;
  float_of_int !correct /. float_of_int !total

let biased_stream ~addr ~p ~n ~seed =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ -> (addr, Random.State.float st 1. < p))

let alternating_stream ~addr ~n = List.init n (fun i -> (addr, i mod 2 = 0))

(* ---------- Perceptron ---------- *)

let test_perceptron_biased () =
  let p = Perceptron.create () in
  train p (biased_stream ~addr:100 ~p:0.9 ~n:500 ~seed:1);
  let acc = accuracy p (biased_stream ~addr:100 ~p:0.9 ~n:500 ~seed:2) in
  check Alcotest.bool "learns 90% bias" true (acc > 0.8)

let test_perceptron_alternating () =
  let p = Perceptron.create () in
  train p (alternating_stream ~addr:100 ~n:400);
  let acc = accuracy p (alternating_stream ~addr:100 ~n:400) in
  check Alcotest.bool "learns alternation" true (acc > 0.95)

let test_perceptron_speculative_no_mutation () =
  let p = Perceptron.create () in
  train p (biased_stream ~addr:4 ~p:0.7 ~n:200 ~seed:3);
  let h = Perceptron.history p in
  let state = Perceptron.export p in
  let before = Perceptron.predict_with_history p ~history:h ~addr:4 in
  (* speculative queries with a private history must not disturb state *)
  let h' = Perceptron.shift p ~history:h ~taken:false in
  ignore (Perceptron.predict_with_history p ~history:h' ~addr:4);
  ignore (Perceptron.predict_with_history p ~history:h' ~addr:8);
  check Alcotest.bool "prediction unchanged" before
    (Perceptron.predict_with_history p ~history:h ~addr:4);
  check Alcotest.int "history unchanged" h (Perceptron.history p);
  check Alcotest.(array int) "tables unchanged" state (Perceptron.export p)

(* ---------- Confidence ---------- *)

let test_conf_easy_branch_high () =
  let c = Conf.create () in
  (* always correctly predicted: counters saturate -> high confidence *)
  for _ = 1 to 200 do
    Conf.update c ~addr:12 ~taken:true ~mispredicted:false
  done;
  check Alcotest.bool "high confidence" true
    (Conf.estimate c ~addr:12 = Conf.High_confidence)

let test_conf_hard_branch_low () =
  let c = Conf.create () in
  let st = Random.State.make [| 6 |] in
  let low = ref 0 in
  for _ = 1 to 500 do
    let taken = Random.State.bool st in
    if Conf.is_low (Conf.estimate c ~addr:12) then incr low;
    (* ~45% misprediction rate *)
    Conf.update c ~addr:12 ~taken ~mispredicted:(Random.State.float st 1. < 0.45)
  done;
  check Alcotest.bool "mostly low confidence" true (!low > 400)

let test_conf_moderate_branch_mixed () =
  (* With the saturating decrement, a 95%-correct branch reaches high
     confidence a meaningful fraction of the time. *)
  let c = Conf.create () in
  let st = Random.State.make [| 7 |] in
  let high = ref 0 in
  for _ = 1 to 2000 do
    if not (Conf.is_low (Conf.estimate c ~addr:12)) then incr high;
    Conf.update c ~addr:12 ~taken:true
      ~mispredicted:(Random.State.float st 1. < 0.05)
  done;
  check Alcotest.bool "sometimes high" true (!high > 500)

(* ---------- properties ---------- *)

let qcheck_predict_total =
  QCheck.Test.make ~name:"predictors total over addresses" ~count:200
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (addr, taken) ->
      ignore (Perceptron.resolve (Perceptron.create ()) ~addr ~taken);
      true)

let qcheck_shift_history_pure =
  QCheck.Test.make ~name:"shift_history is pure" ~count:200
    QCheck.(pair (int_range 0 10000) bool)
    (fun (h, taken) ->
      let p = Perceptron.create () in
      let a = Perceptron.shift p ~history:h ~taken in
      let b = Perceptron.shift p ~history:h ~taken in
      a = b)

(* ---------- differential: resolve = the two-pass reference ---------- *)

(* One step of a stream driven through [Perceptron] and the
   pre-[resolve] copy in perceptron_ref.ml. *)
type step =
  | Resolve of int * bool  (* addr, taken *)
  | Query of int * int  (* history, addr: predict_with_history *)
  | Ref_to_dut  (* export the reference, import into the predictor *)
  | Dut_to_ref  (* export the predictor, import into the reference *)
  | Load of int array  (* the same crafted snapshot into both *)

let pp_step = function
  | Resolve (a, t) -> Printf.sprintf "Resolve (%d, %b)" a t
  | Query (h, a) -> Printf.sprintf "Query (%d, %d)" h a
  | Ref_to_dut -> "Ref_to_dut"
  | Dut_to_ref -> "Dut_to_ref"
  | Load s -> Printf.sprintf "Load <history %d>" s.(0)

(* Geometries: the paper's 256 x 31 and a small odd-sized table. *)
let geometries = [ (256, 31); (13, 7) ]

(* Addresses alias: a few table entries, each reached through several
   addresses [entry + k * entries], so weight vectors are shared and
   trained hard; some addresses are anywhere. Outcomes mix a
   per-address bias with noise, so branches are partly learnable. A
   crafted snapshot puts weights on and past the clamp bounds, where
   training saturates. *)
let steps_gen ~entries ~history_length =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (6, map2 (fun e k -> e + (k * entries)) (int_bound 3) (int_bound 5));
        (1, int_bound 100_000);
      ]
  in
  let weight =
    frequency
      [
        (4, int_range (-128) 127);
        (2, oneofl [ -128; -127; 126; 127 ]);
        (1, int_range (-300) 300);
      ]
  in
  let step =
    frequency
      [
        ( 20,
          map2
            (fun a noise -> Resolve (a, (a mod 3 <> 0) <> (noise = 0)))
            addr (int_bound 4) );
        (4, map2 (fun h a -> Query (h, a)) int addr);
        (1, return Ref_to_dut);
        (1, return Dut_to_ref);
        ( 1,
          map2
            (fun h ws -> Load (Array.of_list (h :: ws)))
            int
            (list_repeat (entries * (history_length + 1)) weight) );
      ]
  in
  list_size (int_range 1 300) step

let qcheck_resolve_equals_reference =
  QCheck.Test.make ~name:"resolve = predict + update reference" ~count:60
    (QCheck.make
       ~print:(fun (g, steps) ->
         Printf.sprintf "geometry %d; %s" g
           (String.concat "; " (List.map pp_step steps)))
       QCheck.Gen.(
         int_bound (List.length geometries - 1) >>= fun g ->
         let entries, history_length = List.nth geometries g in
         map (fun s -> (g, s)) (steps_gen ~entries ~history_length)))
    (fun (g, steps) ->
      let entries, history_length = List.nth geometries g in
      let p = Perceptron.create ~entries ~history_length () in
      let r = Perceptron_ref.create ~entries ~history_length () in
      let same () =
        Perceptron.history p = Perceptron_ref.history r
        && Perceptron.export p = Perceptron_ref.export r
      in
      List.for_all
        (fun step ->
          let answers_agree =
            match step with
            | Resolve (addr, taken) ->
                let expected = Perceptron_ref.predict r ~addr in
                Perceptron_ref.update r ~addr ~taken;
                Perceptron.resolve p ~addr ~taken = expected
            | Query (history, addr) ->
                Perceptron.predict_with_history p ~history ~addr
                = Perceptron_ref.predict_with_history r ~history ~addr
            | Ref_to_dut ->
                Perceptron.import p (Perceptron_ref.export r);
                true
            | Dut_to_ref ->
                Perceptron_ref.import r (Perceptron.export p);
                true
            | Load state ->
                Perceptron.import p state;
                Perceptron_ref.import r state;
                true
          in
          answers_agree && same ()
          || QCheck.Test.fail_reportf "diverged at %s" (pp_step step))
        steps)

let () =
  Alcotest.run "dmp_predictor"
    [
      ("history", [ Alcotest.test_case "shift/bit/fold" `Quick test_history ]);
      ( "perceptron",
        [
          Alcotest.test_case "biased" `Quick test_perceptron_biased;
          Alcotest.test_case "alternating" `Quick
            test_perceptron_alternating;
          Alcotest.test_case "speculative queries pure" `Quick
            test_perceptron_speculative_no_mutation;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "easy -> high" `Quick
            test_conf_easy_branch_high;
          Alcotest.test_case "hard -> low" `Quick test_conf_hard_branch_low;
          Alcotest.test_case "moderate -> mixed" `Quick
            test_conf_moderate_branch_mixed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_predict_total;
          QCheck_alcotest.to_alcotest qcheck_shift_history_pure;
          QCheck_alcotest.to_alcotest qcheck_resolve_equals_reference;
        ] );
    ]
