(* The four benchmark workloads, as run inside one child process each.

   paper-exact       every figure and table target through the
                     experiment Runner with a private disk cache: a cold
                     pass fills it (set-up), warm passes in fresh
                     processes are timed
   sim-image         Sim.run_image on the 17 pre-decoded images under
                     the baseline, DMP (all-best-heur) and dynamic
                     Merge Point Table configurations
   compile-cold      the compiler side for 17 benchmarks x 2 input sets:
                     link, capture, decode, exact and sampled profiles,
                     all 15 selection variants and the software
                     predication pipeline; no cache, no simulation
   select-generated  all 15 selection variants on seeded random programs
                     from Dmp_check.Generator

   A child runs set-up, then timed passes until [seconds] have elapsed,
   and checks every result: against the committed goldens where the
   inputs are fixed, and with the compiler-independent invariant
   validator on generated programs. *)

open Dmp_ir
open Dmp_exec
open Dmp_workload
module Profile = Dmp_profile.Profile
module Sampler = Dmp_sampling.Sampler
module Annotation = Dmp_core.Annotation
module Sim = Dmp_uarch.Sim
module Config = Dmp_uarch.Config
module Stats = Dmp_uarch.Stats
module Variants = Dmp_experiments.Variants
module Runner = Dmp_experiments.Runner
module Targets = Dmp_experiments.Targets

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  set : Input_gen.set;  (* Reduced, or Ref for the held-out inputs *)
  smoke : bool;  (* capped instructions, 2 benchmarks, 20 programs *)
  bless : bool;  (* report golden lines instead of checking them *)
  setup_only : bool;
  jobs : int;
  cache_dir : string;  (* paper-exact only *)
}

type result = {
  setup_s : float list;
  pass_s : float list;  (* untraced timed passes *)
  op_s : float;
      (* one untraced pass estimated as the sum over its operations of
         each operation's median time across passes *)
  traced_pass_s : float list;
  rss_mb : float;  (* VmHWM of this process *)
  attempted : int;
  failed : int;
  failures : string list;
  spans : Spans.t list;
  extra : (string * float) list;
      (* per-layer values spans cannot give: simulator ratios, dedup hits *)
  report : string list;
  outputs : (string * string) list;  (* paper-exact: rendered targets *)
  golden : string list;  (* the lines --bless writes *)
}

let names = [ "paper-exact"; "sim-image"; "compile-cold"; "select-generated" ]

(* The reference the repository holds for the model: the paper's
   All-best-heur amean IPC improvement (Figure 5, left). *)
let paper_all_best_heur_pct = 20.4

let max_insts cfg = if cfg.smoke then Some 20_000 else None

let specs cfg =
  if cfg.smoke then List.map Registry.find [ "gzip"; "li" ] else Registry.all

(* Selection cost is heavy-tailed over generated programs (a few
   irregular CFGs cost the cost-model variants tens of times the median),
   so the corpus must be large for its total to vary little from one
   seed to the next: over seeds 1-10, 300 programs gave a 13% quartile
   spread of total selection time, 600 gave 7%. *)
let generated_programs cfg = if cfg.smoke then 20 else 600

let set_name = Input_gen.set_to_string

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

let md5 s = Digest.to_hex (Digest.string s)
let marshal_md5 v = md5 (Marshal.to_string v [])
let now = Unix.gettimeofday
let span = Spans.span

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- goldens ---- *)

(* One line per operation, "<key fields> <value fields>"; the key is
   everything up to the last field. *)
let golden_path workload cfg =
  let suffix =
    match workload with
    | "sim-image" | "compile-cold" -> "-" ^ set_name cfg.set
    | _ -> ""
  in
  Filename.concat "bench/perf/golden" (workload ^ suffix ^ ".txt")

let key_of line =
  match String.rindex_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

(* A checker over one workload's operations: counts attempted and
   failed operations and compares each operation's golden line. *)
type checker = {
  golden : (string, string) Hashtbl.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* reversed *)
  mutable lines : string list;  (* first pass, reversed *)
}

let checker ?(use_golden = true) workload cfg =
  let path = golden_path workload cfg in
  let golden, failures =
    if (not use_golden) || cfg.smoke || cfg.bless then (None, [])
    else if not (Sys.file_exists path) then
      (* Every operation then fails for want of its golden line. *)
      ( Some (Hashtbl.create 1),
        [ Printf.sprintf "missing golden file %s (run with --bless)" path ] )
    else
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let tbl = Hashtbl.create 64 in
          (try
             while true do
               let l = input_line ic in
               if l <> "" then Hashtbl.replace tbl (key_of l) l
             done
           with End_of_file -> ());
          (Some tbl, []))
  in
  { golden; attempted = 0; failed = 0; failures; lines = [] }

let op_failed ck msgs =
  ck.failed <- ck.failed + 1;
  ck.failures <- List.rev_append msgs ck.failures

(* [line] is [None] when the operation raised (already counted). *)
let check_op ck ~first ~what line =
  ck.attempted <- ck.attempted + 1;
  match line with
  | None -> ()
  | Some line -> (
      if first then ck.lines <- line :: ck.lines;
      match ck.golden with
      | None -> ()
      | Some tbl -> (
          match Hashtbl.find_opt tbl (key_of line) with
          | Some expected when expected = line -> ()
          | Some expected ->
              op_failed ck
                [ Printf.sprintf "%s: got %S, golden %S" what line expected ]
          | None ->
              op_failed ck [ Printf.sprintf "%s: no golden line for %S" what line ]))

let guarded ck what f =
  match f () with
  | v -> Some v
  | exception e ->
      op_failed ck [ Printf.sprintf "%s raised %s" what (Printexc.to_string e) ];
      None

(* ---- shared pass loop ---- *)

let setup_phase f =
  Spans.phase := "setup";
  let t0 = now () in
  let v = span ~layer:"bench" "setup" f in
  (now () -. t0, v)

let base_result = {
  setup_s = []; pass_s = []; op_s = 0.; traced_pass_s = []; rss_mb = 0.; attempted = 0;
  failed = 0; failures = []; spans = []; extra = []; report = []; outputs = []; golden = [];
}

(* Set-up, then the timed part [run] over its product — unless this
   child only samples set-up time. In trace mode the set-up is recorded,
   then the recorder pauses for the untraced passes. *)
let with_setup cfg workload setup run =
  if cfg.setup_only then { base_result with setup_s = [ fst (setup_phase setup) ] }
  else begin
    if cfg.trace then Spans.enable ~workload;
    let setup_s, data = setup_phase setup in
    Spans.enabled := false;
    run setup_s data
  end

(* Durations of each timed operation, one per pass. On a shared host,
   interference from other processes comes in bursts shorter than a
   pass; an operation's median over passes seconds apart drops the
   burst one pass ran into, where a median of whole-pass times needs
   most passes to be clean. *)
let op_times : (string, float list) Hashtbl.t = Hashtbl.create 512

let op key f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  Hashtbl.replace op_times key
    (dt :: Option.value (Hashtbl.find_opt op_times key) ~default:[]);
  v

(* Timed passes until [seconds] have elapsed and at least [min_passes]
   have run. [verify] runs after each pass's clock has stopped. Returns
   the pass times and the per-operation estimate of one pass. *)
let passes ~min_passes ~seconds ~traced pass verify =
  Spans.phase := "timed";
  Hashtbl.reset op_times;
  let start = now () in
  let rec go i acc =
    let t0 = now () in
    let r = span ~layer:"bench" "pass" pass in
    let dt = now () -. t0 in
    verify ~first:(i = 0 && not traced) r;
    let acc = dt :: acc in
    if i + 1 >= min_passes && now () -. start >= seconds then List.rev acc
    else go (i + 1) acc
  in
  let walls = go 0 [] in
  (walls, Hashtbl.fold (fun _ ts acc -> acc +. median ts) op_times 0.)

(* Untraced passes (the end-to-end numbers); in trace mode followed by
   the same passes with the span recorder on. *)
let timed ?(min_passes = 3) cfg pass verify =
  let min_passes = if cfg.smoke then 1 else min_passes in
  let run ~traced = passes ~min_passes ~seconds:cfg.seconds ~traced pass verify in
  let untraced, op_s = run ~traced:false in
  let traced =
    if cfg.trace then begin
      Spans.enabled := true;
      fst (run ~traced:true)
    end
    else []
  in
  (untraced, op_s, traced)

let finish ck r =
  { r with
    rss_mb = peak_rss_mb ();
    attempted = ck.attempted;
    failed = ck.failed;
    failures = List.rev ck.failures;
    spans = Spans.take ();
    golden = List.rev ck.lines }

(* ---- sim-image ---- *)

let sim_configs =
  [ ("baseline", Config.baseline); ("dmp", Config.dmp);
    ("mpt", Config.dmp_dynamic Dmp_mpp.Mpt.default) ]

let stats_line name cname s =
  Printf.sprintf "%s %s cycles=%d retired=%d %s" name cname s.Stats.cycles
    s.Stats.retired
    (md5
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Stats.fields s))))

let sim_image cfg =
  let ck = checker "sim-image" cfg in
  let max_insts = max_insts cfg in
  let setup () =
    List.map
      (fun (spec : Spec.t) ->
        let program =
          span ~layer:"workload" "Spec.program" (fun () ->
              Lazy.force spec.Spec.program)
        in
        let input =
          span ~layer:"workload" "Spec.input" (fun () -> spec.Spec.input cfg.set)
        in
        let linked = span ~layer:"ir" "Linked.link" (fun () -> Linked.link program) in
        let trace =
          span ~layer:"exec" ~insts:Trace.length "Trace.capture" (fun () ->
              Trace.capture ?max_insts linked ~input)
        in
        let image =
          span ~layer:"exec" ~insts:Image.length "Image.of_trace" (fun () ->
              Image.of_trace trace)
        in
        let profile =
          span ~layer:"profile" ~insts:Profile.retired "Profile.collect_trace"
            (fun () -> Profile.collect_trace ?max_insts linked trace)
        in
        let ann =
          span ~layer:"core" "Variants.annotate all-best-heur" (fun () ->
              Variants.annotate Variants.all_best_heur linked profile)
        in
        (spec.Spec.name, linked, image, ann))
      (specs cfg)
  in
  with_setup cfg "sim-image" setup (fun setup_s benches ->
    let pass () =
      List.concat_map
        (fun (name, linked, image, ann) ->
          List.map
            (fun (cname, config) ->
              let what = Printf.sprintf "%s/%s" name cname in
              ( name, cname,
                guarded ck what (fun () ->
                    op what (fun () ->
                        span ~layer:"uarch" ~insts:(fun s -> s.Stats.retired)
                          ("Sim.run_image " ^ cname) (fun () ->
                            Sim.run_image ~config
                              ?annotation:(if cname = "dmp" then Some ann else None)
                              ?max_insts linked image))) ))
            sim_configs)
        benches
    in
    let last = ref [] in
    let verify ~first results =
      last := results;
      List.iter
        (fun (name, cname, s) ->
          check_op ck ~first ~what:(name ^ "/" ^ cname)
            (Option.map (stats_line name cname) s))
        results
    in
    let untraced, op_s, traced = timed cfg pass verify in
    let sum cname =
      List.fold_left
        (fun acc (_, c, s) ->
          match s with Some s when c = cname -> Stats.merge acc s | _ -> acc)
        (Stats.create ()) !last
    in
    let base = sum "baseline" and dmp = sum "dmp" and mpt = sum "mpt" in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    let speedups =
      List.filter_map
        (fun (name, _, _, _) ->
          let find c =
            List.find_map
              (fun (n, c', s) -> if n = name && c' = c then s else None)
              !last
          in
          match (find "baseline", find "dmp") with
          | Some b, Some d -> Some (Runner.speedup_pct ~base:b d)
          | _ -> None)
        benches
    in
    let amean = Runner.amean speedups in
    let counts label s fields =
      Printf.sprintf "  %-8s %s" label
        (String.concat " "
           (List.map
              (fun f -> Printf.sprintf "%s=%d" f (List.assoc f (Stats.fields s)))
              fields))
    in
    finish ck
      { base_result with
        setup_s = [ setup_s ];
        pass_s = untraced;
        op_s;
        traced_pass_s = traced;
        extra =
          [ ("uarch.dmp.merge_ratio", ratio dmp.Stats.dpred_merges dmp.Stats.dpred_entries);
            ("uarch.mpt.mpp_hit_ratio", ratio mpt.Stats.mpp_predicted mpt.Stats.mpp_lookups) ];
        report =
          [ Printf.sprintf
              "all-best-heur amean IPC gain on %s: %.4f%% (paper %.1f%%, gap %.4f pts)"
              (set_name cfg.set) amean paper_all_best_heur_pct
              (Float.abs (paper_all_best_heur_pct -. amean));
            "simulator counts summed over benchmarks (one pass):";
            counts "baseline" base
              [ "cycles"; "retired"; "flushes"; "wrong_side_insts";
                "recovery_cycles"; "rob_full_cycles" ];
            counts "dmp" dmp
              [ "cycles"; "dpred_entries"; "dpred_cycles"; "dpred_merges";
                "dpred_useless_entries"; "select_uops"; "loop_extra_insts" ];
            counts "mpt" mpt [ "cycles"; "mpp_lookups"; "mpp_predicted" ] ] })

(* ---- compile-cold ---- *)

let variants =
  List.map (fun n -> (n, Option.get (Variants.of_string n))) Variants.names

let lbr_sampling = { Sampler.mode = Sampler.Lbr 16; period = 1000; seed = 42 }

let compile_cold cfg =
  let ck = checker "compile-cold" cfg in
  let max_insts = max_insts cfg in
  let sets = [ cfg.set; Input_gen.Train ] in
  let setup () =
    List.concat_map
      (fun (spec : Spec.t) ->
        let program =
          span ~layer:"workload" "Spec.program" (fun () ->
              Lazy.force spec.Spec.program)
        in
        List.map
          (fun set ->
            ( spec.Spec.name, set, program,
              span ~layer:"workload" "Spec.input" (fun () -> spec.Spec.input set) ))
          sets)
      (specs cfg)
  in
  with_setup cfg "compile-cold" setup (fun setup_s jobs ->
    let compile program input =
      let linked = span ~layer:"ir" "Linked.link" (fun () -> Linked.link program) in
      let trace =
        span ~layer:"exec" ~insts:Trace.length "Trace.capture" (fun () ->
            Trace.capture ?max_insts linked ~input)
      in
      let image_len =
        span ~layer:"exec" ~insts:Fun.id "Image.of_trace" (fun () ->
            Image.length (Image.of_trace trace))
      in
      let profile =
        span ~layer:"profile" ~insts:Profile.retired "Profile.collect_trace"
          (fun () -> Profile.collect_trace ?max_insts linked trace)
      in
      let sampler =
        span ~layer:"sampling" ~insts:Sampler.retired "Sampler.collect_trace"
          (fun () ->
            Sampler.collect_trace ?max_insts ~config:lbr_sampling linked trace)
      in
      let sampled =
        span ~layer:"sampling" "Reconstruct.profile" (fun () ->
            Dmp_sampling.Reconstruct.profile linked sampler)
      in
      let anns =
        List.map
          (fun (n, v) ->
            span ~layer:"core" ("Variants.annotate " ^ n) (fun () ->
                Variants.annotate v linked profile))
          variants
      in
      let transformed =
        span ~layer:"transform" "Pipeline.run" (fun () ->
            Dmp_transform.Pipeline.run linked profile)
      in
      (linked, image_len, profile, sampled, anns, transformed)
    in
    let pass () =
      List.map
        (fun (name, set, program, input) ->
          let what = Printf.sprintf "%s/%s" name (set_name set) in
          (name, set, guarded ck what (fun () -> op what (fun () -> compile program input))))
        jobs
    in
    let selected = ref 0 and converted = ref 0 in
    let verify ~first results =
      selected := 0;
      converted := 0;
      List.iter
        (fun (name, set, r) ->
          let line =
            Option.map
              (fun (linked, image_len, profile, sampled, anns, tr) ->
                let size = Linked.size linked in
                List.iter (fun a -> selected := !selected + Annotation.count a) anns;
                let st = tr.Dmp_transform.Pipeline.stats in
                converted :=
                  !converted + st.Dmp_transform.Stats.converted
                  + st.Dmp_transform.Stats.melded;
                Printf.sprintf "%s %s insts=%d %s" name (set_name set) image_len
                  (md5
                     (String.concat ","
                        ([ marshal_md5 (Profile.to_raw profile);
                           marshal_md5 (Profile.to_raw sampled);
                           marshal_md5 tr.Dmp_transform.Pipeline.program;
                           marshal_md5 st ]
                        @ List.map
                            (fun a ->
                              Annotation.Compiled.fingerprint
                                (Annotation.compile ~size a))
                            anns))))
              r
          in
          check_op ck ~first ~what:(name ^ "/" ^ set_name set) line)
        results
    in
    let untraced, op_s, traced = timed cfg pass verify in
    finish ck
      { base_result with
        setup_s = [ setup_s ];
        pass_s = untraced;
        op_s;
        traced_pass_s = traced;
        report =
          [ Printf.sprintf
              "per pass: %d diverge branches selected over %d annotations, %d \
               hammocks converted or melded"
              !selected
              (List.length jobs * List.length variants)
              !converted ] })

(* ---- select-generated ---- *)

let select_generated cfg =
  let ck = checker ~use_golden:false "select-generated" cfg in
  let n = generated_programs cfg in
  (* As `dmp check --random` does: each program's all-best-heur
     selection is fed back so generation steers toward structural
     shapes not yet exhibited. *)
  let setup () =
    let gen =
      span ~layer:"check" "Generator.create" (fun () ->
          Dmp_check.Generator.create ~seed:cfg.seed)
    in
    let programs =
      List.init n (fun _ ->
          let program, input =
            span ~layer:"check" "Generator.next" (fun () ->
                Dmp_check.Generator.next gen)
          in
          let linked = span ~layer:"ir" "Linked.link" (fun () -> Linked.link program) in
          let trace =
            span ~layer:"exec" ~insts:Trace.length "Trace.capture" (fun () ->
                Trace.capture linked ~input)
          in
          let profile =
            span ~layer:"profile" ~insts:Profile.retired "Profile.collect_trace"
              (fun () -> Profile.collect_trace linked trace)
          in
          let ann =
            span ~layer:"core" "Select.run" (fun () ->
                Dmp_core.Select.run ~config:Dmp_core.Select.all_heuristic linked
                  profile)
          in
          span ~layer:"check" "Generator.note" (fun () ->
              Dmp_check.Generator.note gen ann);
          (linked, profile))
    in
    (gen, programs)
  in
  with_setup cfg "select-generated" setup (fun setup_s (gen, programs) ->
    let pass () =
      List.mapi
        (fun i (linked, profile) ->
          ( i, linked, profile,
            guarded ck (Printf.sprintf "program %d" i) (fun () ->
                op (string_of_int i) @@ fun () ->
                List.map
                  (fun (vn, v) ->
                    (vn, v,
                     span ~layer:"core" ("Variants.annotate " ^ vn) (fun () ->
                         Variants.annotate v linked profile)))
                  variants) ))
        programs
    in
    (* No golden: the generated programs change with the seed. The first
       pass is checked with the invariant validator, which re-derives
       every claimed CFM fact from the CFG and the profile independently
       of the selection code; later passes must reproduce the first
       pass's compiled-annotation fingerprints exactly. *)
    let first_prints = Hashtbl.create 512 in
    let selected = ref 0 in
    let verify ~first results =
      selected := 0;
      List.iter
        (fun (i, linked, profile, anns) ->
          ck.attempted <- ck.attempted + 1;
          match anns with
          | None -> ()
          | Some anns ->
              let size = Linked.size linked in
              let prints =
                List.map
                  (fun (_, _, a) ->
                    selected := !selected + Annotation.count a;
                    Annotation.Compiled.fingerprint (Annotation.compile ~size a))
                  anns
              in
              let problems =
                if first then begin
                  Hashtbl.replace first_prints i prints;
                  List.concat_map
                    (fun (vn, v, a) ->
                      match v with
                      | Variants.Simple _ -> []
                      | Variants.Heur _ | Variants.Cost _ ->
                          let c = Variants.to_config v in
                          let ctx =
                            Dmp_core.Context.create
                              ~params:c.Dmp_core.Select.params linked profile
                          in
                          List.map
                            (Format.asprintf "program %d %s: %a" i vn
                               Dmp_check.Diagnostic.pp)
                            (Dmp_check.Diagnostic.errors
                               (Dmp_check.Invariants.check_annotation ctx
                                  ~mode:c.Dmp_core.Select.mode a)))
                    anns
                end
                else if Hashtbl.find_opt first_prints i <> Some prints then
                  [ Printf.sprintf
                      "program %d: annotations differ from the first pass" i ]
                else []
              in
              if problems <> [] then op_failed ck problems)
        results
    in
    let untraced, op_s, traced = timed ~min_passes:1 cfg pass verify in
    finish ck
      { base_result with
        setup_s = [ setup_s ];
        pass_s = untraced;
        op_s;
        traced_pass_s = traced;
        report =
          [ Printf.sprintf "seed %d, %d programs: %s" cfg.seed n
              (Dmp_check.Generator.coverage_report gen);
            Printf.sprintf "per pass: %d diverge branches selected over %d annotations"
              !selected
              (n * List.length variants) ] })

(* ---- paper-exact ---- *)

(* Runner stage label, "<subject> (<action>)", -> the library layer
   doing the work. Stage seconds are additive only at -j1, which is why
   traced runs use one job. The zero-time accounting rows (dedup hits,
   elided lanes) are the scheduler's, so they stay in experiments. *)
let layer_of_stage stage =
  let subject, action =
    match String.index_opt stage '(' with
    | Some i when String.ends_with ~suffix:")" stage ->
        ( String.trim (String.sub stage 0 i),
          String.sub stage (i + 1) (String.length stage - i - 2) )
    | Some _ | None -> (stage, "")
  in
  match (subject, action) with
  | _, "disk cache" -> "experiments"
  | "link", _ -> "ir"
  | ("trace" | "ttrace" | "image"), _ -> "exec"
  | ("profile" | "tprofile"), _ -> "profile"
  | "sprofile", _ -> "sampling"
  | "select", _ -> "core"
  | "transform", _ -> "transform"
  | ( ("baseline" | "tbaseline" | "dmp" | "tdmp" | "ckpt"),
      ("simulate" | "simulate fused" | "capture" | "elide") ) ->
      "uarch"
  | _ -> "experiments"

let charge_stages before after =
  List.iter
    (fun (stage, calls, secs) ->
      let c0, s0 =
        match List.find_opt (fun (s, _, _) -> s = stage) before with
        | Some (_, c, s) -> (c, s)
        | None -> (0, 0.)
      in
      if calls > c0 then
        Spans.charge ~layer:(layer_of_stage stage) ~name:("stage " ^ stage)
          ~calls:(calls - c0) (secs -. s0))
    after

(* One pass over every target, as bench/main.exe renders them. *)
let paper_pass cfg ck ~cold =
  let runner =
    Runner.create
      ?benchmarks:(if cfg.smoke then Some (specs cfg) else None)
      ?max_insts:(max_insts cfg) ~cache_dir:cfg.cache_dir ~jobs:cfg.jobs ()
  in
  let with_stages name f =
    span ~layer:"experiments" name (fun () ->
        let before = Runner.timings runner in
        let v = f () in
        charge_stages before (Runner.timings runner);
        v)
  in
  let t0 = now () in
  let outputs =
    span ~layer:"bench" (if cold then "setup" else "pass") (fun () ->
        with_stages "Runner.prefetch" (fun () ->
            Runner.prefetch ~profile_sets:(Targets.profile_sets Targets.all)
              ~jobs:cfg.jobs runner);
        List.filter_map
          (fun target ->
            match
              guarded ck target (fun () ->
                  with_stages ("Targets.render " ^ target) (fun () ->
                      Targets.render runner target))
            with
            | Some (Ok s) -> Some (target, s ^ "\n")
            | Some (Error msg) ->
                op_failed ck [ target ^ ": " ^ msg ];
                None
            | None -> None)
          Targets.all)
  in
  let wall = now () -. t0 in
  List.iter
    (fun (target, s) ->
      check_op ck ~first:true ~what:target (Some (target ^ " " ^ md5 s)))
    outputs;
  (* Targets that failed to render still count as attempted. *)
  ck.attempted <- List.length Targets.all;
  let hits =
    match List.find_opt (fun (s, _, _) -> s = "dmp (dedup hit)") (Runner.timings runner) with
    | Some (_, c, _) -> float_of_int c
    | None -> 0.
  in
  (wall, outputs, hits)

let paper cfg ~cold =
  let ck = checker "paper-exact" cfg in
  if cfg.trace then Spans.enable ~workload:"paper-exact";
  Spans.phase := if cold then "setup" else "timed";
  let wall, outputs, hits = paper_pass cfg ck ~cold in
  finish ck
    { base_result with
      setup_s = (if cold then [ wall ] else []);
      pass_s = (if cold || cfg.trace then [] else [ wall ]);
      traced_pass_s = (if (not cold) && cfg.trace then [ wall ] else []);
      outputs;
      extra = [ ("experiments.dedup_hits", hits) ] }

(* The last field of fig5l's amean row is the All-best-heur mean. *)
let fig5l_all_best_heur outputs =
  match List.assoc_opt "fig5l" outputs with
  | None -> None
  | Some text ->
      List.find_map
        (fun line ->
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | "amean" :: (_ :: _ as cols) ->
              float_of_string_opt (List.nth cols (List.length cols - 1))
          | _ -> None)
        (String.split_on_char '\n' text)

let run_child phase cfg =
  match phase with
  | "paper-cold" -> paper cfg ~cold:true
  | "paper-warm" -> paper cfg ~cold:false
  | "sim-image" -> sim_image cfg
  | "compile-cold" -> compile_cold cfg
  | "select-generated" -> select_generated cfg
  | p -> invalid_arg ("unknown child phase " ^ p)
