(* Binary encode / decode / CFG-recovery tests. The strongest check is
   semantic: a program recovered from its own binary image must produce
   the same architectural behaviour (trace length and output) as the
   original on the same input. *)

open Dmp_ir
open Dmp_exec

let check = Alcotest.check

let behaviour program ~input =
  let linked = Linked.link program in
  let emu = Emulator.create linked ~input in
  let retired = Emulator.run emu in
  (retired, Emulator.output emu)

let round_trip program =
  let linked = Linked.link program in
  let image = Encode.encode linked in
  match Recover.program image with
  | Ok p -> p
  | Error m -> Alcotest.failf "recover failed: %s" m

let test_word_round_trip () =
  (* encode/decode individual words across the full instruction set *)
  let program = Helpers.ret_cfm_program ~iters:3 () in
  let linked = Linked.link program in
  let image = Encode.encode linked in
  Array.iteri
    (fun addr w ->
      let s = Encode.disassemble_word w in
      check Alcotest.bool
        (Printf.sprintf "word %d disassembles" addr)
        true
        (String.length s > 0))
    image.Encode.code;
  check Alcotest.int "one word per instruction" (Linked.size linked)
    (Array.length image.Encode.code)

let test_symbols () =
  let program = Helpers.ret_cfm_program ~iters:3 () in
  let linked = Linked.link program in
  let image = Encode.encode linked in
  check Alcotest.int "two symbols" 2 (List.length image.Encode.symbols);
  let name, entry, size = List.hd image.Encode.symbols in
  check Alcotest.string "main first" "main" name;
  check Alcotest.int "main entry" (Linked.entry_addr linked) entry;
  check Alcotest.bool "sizes positive" true (size > 0)

let test_semantic_equivalence () =
  List.iter
    (fun program ->
      let input = Helpers.uniform_input 600 in
      let recovered = round_trip program in
      check
        Alcotest.(pair int (list int))
        "same trace length and output"
        (behaviour program ~input)
        (behaviour recovered ~input))
    [
      Helpers.simple_hammock_program ~iters:500 ();
      Helpers.freq_hammock_program ~iters:500 ();
      Helpers.data_loop_program ~iters:500 ();
      Helpers.ret_cfm_program ~iters:500 ();
    ]

let test_workload_binaries_recover () =
  (* Every benchmark binary encodes and recovers to an equivalent
     program (checked on a truncated run for speed). *)
  List.iter
    (fun spec ->
      let program = Lazy.force spec.Dmp_workload.Spec.program in
      let input = spec.Dmp_workload.Spec.input Dmp_workload.Input_gen.Reduced in
      let recovered = round_trip program in
      let run p =
        let emu = Emulator.create (Linked.link p) ~input in
        let n = Emulator.run ~max_insts:50_000 emu in
        (n, Emulator.output emu)
      in
      check
        Alcotest.(pair int (list int))
        (spec.Dmp_workload.Spec.name ^ " equivalent")
        (run program) (run recovered))
    [
      Dmp_workload.Registry.find "gzip";
      Dmp_workload.Registry.find "gcc";
      Dmp_workload.Registry.find "twolf";
      Dmp_workload.Registry.find "go";
    ]

let test_selection_on_recovered_binary () =
  (* The full compiler pipeline works on a recovered binary: this is
     exactly the paper's flow (binary in, annotations out). *)
  let program = Helpers.freq_hammock_program () in
  let input = Helpers.uniform_input 2100 in
  let recovered = round_trip program in
  let linked = Linked.link recovered in
  let profile = Dmp_profile.Profile.collect linked ~input in
  let ann = Dmp_core.Select.run linked profile in
  check Alcotest.bool "diverge branches found on recovered binary" true
    (Dmp_core.Annotation.count ann > 0)

let qcheck_double_round_trip =
  QCheck.Test.make ~name:"recover is idempotent" ~count:20
    QCheck.(int_range 0 3)
    (fun i ->
      let program =
        match i with
        | 0 -> Helpers.simple_hammock_program ~iters:50 ()
        | 1 -> Helpers.freq_hammock_program ~iters:50 ()
        | 2 -> Helpers.data_loop_program ~iters:50 ()
        | _ -> Helpers.ret_cfm_program ~iters:50 ()
      in
      let once = round_trip program in
      let twice = round_trip once in
      (* recovered programs are already leader-normalised, so a second
         round trip is the identity on structure *)
      Program.size once = Program.size twice
      && Program.num_funcs once = Program.num_funcs twice)

(* ---------- Recover never raises ---------- *)

let benchmark_images =
  lazy
    (Array.of_list
       (List.map
          (fun spec -> Encode.encode (Dmp_workload.Spec.linked spec))
          Dmp_workload.Registry.all))

(* One corruption of a benchmark's image, chosen by [kind]: a flipped
   code bit, a code word replaced by [word], the code array truncated,
   or one symbol's entry or size shifted by up to 20 either way. *)
let corrupt (image : Encode.image) ~kind ~pos ~word =
  let code = image.Encode.code in
  let symbols = image.Encode.symbols in
  let at = pos mod Array.length code in
  let set_word w =
    let code = Array.copy code in
    code.(at) <- w;
    { image with Encode.code }
  in
  let shift_symbol f =
    let target = pos mod List.length symbols in
    let delta = ((word land 63) mod 41) - 20 in
    { image with
      Encode.symbols =
        List.mapi (fun i s -> if i = target then f s delta else s) symbols }
  in
  match kind with
  | 0 -> set_word (code.(at) lxor (1 lsl ((word land 63) mod 63)))
  | 1 -> set_word word
  | 2 -> { image with Encode.code = Array.sub code 0 at }
  | 3 -> shift_symbol (fun (name, entry, size) d -> (name, entry + d, size))
  | _ -> shift_symbol (fun (name, entry, size) d -> (name, entry, size + d))

let qcheck_recover_never_raises =
  QCheck.Test.make ~name:"recover never raises on corrupted benchmarks"
    ~count:2000
    QCheck.(quad (int_bound 1_000) (int_bound 4) (int_bound 1_000_000) int)
    (fun (b, kind, pos, word) ->
      let images = Lazy.force benchmark_images in
      let image = images.(b mod Array.length images) in
      match Recover.program (corrupt image ~kind ~pos ~word) with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "dmp_binary"
    [
      ( "encode",
        [
          Alcotest.test_case "word round trip" `Quick test_word_round_trip;
          Alcotest.test_case "symbols" `Quick test_symbols;
        ] );
      ( "recover",
        [
          Alcotest.test_case "semantic equivalence" `Quick
            test_semantic_equivalence;
          Alcotest.test_case "workload binaries" `Slow
            test_workload_binaries_recover;
          Alcotest.test_case "selection on recovered binary" `Quick
            test_selection_on_recovered_binary;
          QCheck_alcotest.to_alcotest qcheck_double_round_trip;
          QCheck_alcotest.to_alcotest qcheck_recover_never_raises;
        ] );
    ]
