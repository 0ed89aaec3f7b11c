(* Command-line driver for the DMP compiler/simulator toolchain. *)

open Cmdliner
open Dmp_workload
open Dmp_experiments
module Linked = Dmp_ir.Linked
module Program = Dmp_ir.Program
module Func = Dmp_ir.Func
module Block = Dmp_ir.Block

let bench_arg =
  let doc = "Benchmark name (see `dmp list`)." in
  Arg.(value & opt string "gzip" & info [ "b"; "benchmark" ] ~doc)

let set_arg =
  let doc = "Input set: reduced, train or ref." in
  Arg.(value & opt string "reduced" & info [ "s"; "input-set" ] ~doc)

let algo_arg =
  let doc =
    "Selection algorithm: " ^ String.concat ", " Variants.names ^ "."
  in
  Arg.(value & opt string "all-best-heur" & info [ "a"; "algo" ] ~doc)

let max_insts_arg =
  let doc =
    "Stop profiling and simulation after this many retired instructions."
  in
  Arg.(value & opt (some int) None & info [ "max-insts" ] ~doc)

let provider_arg =
  let doc =
    "Merge-point provider: " ^ String.concat ", " Providers.names
    ^ ". static uses the compile-time selection (-a), dynamic simulates \
       the Merge Point Table predictor, oracle annotates every eligible \
       branch with its true immediate post-dominator."
  in
  Arg.(value & opt string "static" & info [ "provider" ] ~doc)

let lookup_variant name =
  match Variants.of_string name with
  | Some v -> v
  | None ->
      Printf.eprintf "unknown algorithm %s; known: %s\n" name
        (String.concat ", " Variants.names);
      exit 2

let lookup_provider name =
  match Providers.of_string name with
  | Some p -> p
  | None ->
      Printf.eprintf "unknown provider %s; known: %s\n" name
        (String.concat ", " Providers.names);
      exit 2

let lookup_bench name =
  match Registry.find_opt name with
  | Some spec -> spec
  | None ->
      Printf.eprintf "unknown benchmark %s; known: %s\n" name
        (String.concat ", " Registry.names);
      exit 2

let lookup_set s =
  match Input_gen.set_of_string_opt s with
  | Some set -> set
  | None ->
      Printf.eprintf "unknown input set %s; known: reduced, train, ref\n" s;
      exit 2

(* [max_insts] caps profiling here exactly as it caps the simulations
   below, matching the serving daemon's Runner semantics — that is
   what makes `dmp run --max-insts N` byte-identical to the daemon's
   capped run request (CI compares them). *)
let pipeline bench set max_insts =
  let spec = lookup_bench bench in
  let linked = Spec.linked spec in
  let input = spec.Spec.input (lookup_set set) in
  let profile = Dmp_profile.Profile.collect linked ~input ?max_insts in
  (spec, linked, input, profile)

(* ---- list ---- *)

let list_cmd =
  let flag names doc = Arg.(value & flag & info names ~doc) in
  let benchmarks_arg = flag [ "benchmarks" ] "List only the benchmarks." in
  let targets_arg = flag [ "targets" ] "List only the experiment targets." in
  let sets_arg = flag [ "input-sets" ] "List only the input sets." in
  let algos_arg =
    flag [ "algorithms" ] "List only the selection algorithms."
  in
  let run benchmarks targets sets algos =
    let all = not (benchmarks || targets || sets || algos) in
    let wanted =
      [ all || benchmarks; all || targets; all || sets; all || algos ]
    in
    (* Headers only when more than one section prints, so a single
       --targets / --algorithms listing stays script-friendly. *)
    let headers =
      List.length (List.filter Fun.id wanted) > 1
    in
    let printed = ref 0 in
    let section want title body =
      if want then begin
        if headers then begin
          if !printed > 0 then print_newline ();
          Printf.printf "== %s ==\n" title
        end;
        incr printed;
        body ()
      end
    in
    section (all || benchmarks) "benchmarks (-b NAME)" (fun () ->
        List.iter
          (fun spec ->
            Printf.printf "%-10s %s\n" spec.Spec.name spec.Spec.description)
          Registry.all);
    section (all || targets) "experiment targets (dmp experiment TARGET)"
      (fun () -> List.iter print_endline Targets.all);
    section (all || sets) "input sets (-s SET)" (fun () ->
        List.iter print_endline [ "reduced"; "train"; "ref" ]);
    (* Every compile-time selection algorithm is a static merge-point
       provider; the predictor geometries and the oracle have no
       selection algorithm of their own, so they print as extra rows
       with a dash in the algorithm column. *)
    section (all || algos) "selection algorithms (-a ALGO)" (fun () ->
        List.iter
          (fun n -> Printf.printf "%-14s %s\n" n "static")
          Variants.names;
        List.iter
          (fun (name, p) ->
            match p with
            | Providers.Static -> ()
            | Providers.Dynamic _ | Providers.Oracle ->
                Printf.printf "%-14s %s\n" "-" name)
          Providers.all)
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the valid benchmarks, experiment targets, input sets and \
          selection algorithms")
    Term.(const run $ benchmarks_arg $ targets_arg $ sets_arg $ algos_arg)

(* ---- run ---- *)

let run_cmd =
  let ann_file_arg =
    Arg.(value & opt (some string) None
           & info [ "annotation-file" ]
               ~doc:"Load a serialised annotation instead of selecting.")
  in
  let run bench set algo provider max_insts ann_file =
    let provider_t = lookup_provider provider in
    (match (provider_t, ann_file) with
    | (Providers.Dynamic _ | Providers.Oracle), Some _ ->
        Printf.eprintf
          "--annotation-file only applies to the static provider\n";
        exit 2
    | _ -> ());
    let spec = lookup_bench bench in
    let linked = Spec.linked spec in
    let input = spec.Spec.input (lookup_set set) in
    (* One capture serves the profile and both simulations. *)
    let trace = Dmp_exec.Trace.capture ?max_insts linked ~input in
    let profile = Dmp_profile.Profile.collect_trace ?max_insts linked trace in
    let image = Dmp_exec.Image.of_trace trace in
    let ann =
      match (provider_t, ann_file) with
      | Providers.Static, Some file -> (
          let ic = open_in file in
          let n = in_channel_length ic in
          let text = really_input_string ic n in
          close_in ic;
          match Dmp_core.Annotation.of_string text with
          | Ok a -> a
          | Error m ->
              Printf.eprintf "bad annotation file: %s\n" m;
              exit 2)
      | Providers.Static, None ->
          Variants.annotate (lookup_variant algo) linked profile
      | (Providers.Dynamic _ | Providers.Oracle), _ -> (
          match Providers.annotation provider_t linked with
          | Some a -> a
          | None -> Dmp_core.Annotation.empty ())
    in
    let base =
      Dmp_uarch.Sim.run_image ~config:Dmp_uarch.Config.baseline ?max_insts
        linked image
    in
    let dmp =
      Dmp_uarch.Sim.run_image
        ~config:(Providers.config provider_t)
        ~annotation:ann ?max_insts linked image
    in
    let algo =
      match provider_t with
      | Providers.Static -> algo
      | Providers.Dynamic _ | Providers.Oracle -> provider
    in
    print_string (Dmp_serve.Render.run_text ~algo ~ann ~base ~dmp)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Profile, select diverge branches, and simulate")
    Term.(
      const run $ bench_arg $ set_arg $ algo_arg $ provider_arg
      $ max_insts_arg $ ann_file_arg)

(* ---- annotate ---- *)

let annotate_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
           & info [ "o"; "output" ]
               ~doc:"Write the annotation in its serialised form to FILE.")
  in
  let run bench set algo provider max_insts out =
    let provider_t = lookup_provider provider in
    let _, linked, _, profile = pipeline bench set max_insts in
    let ann, algo =
      match provider_t with
      | Providers.Static ->
          (Variants.annotate (lookup_variant algo) linked profile, algo)
      | Providers.Oracle -> (
          match Providers.annotation provider_t linked with
          | Some a -> (a, provider)
          | None -> assert false)
      | Providers.Dynamic _ ->
          (* The predictor builds its table at run time: there is no
             compile-time annotation to print or serialise. *)
          Printf.eprintf
            "provider %s has no compile-time annotation; use `dmp run \
             --provider %s` to simulate it\n"
            provider provider;
          exit 2
    in
    match out with
    | Some file ->
        let oc = open_out file in
        output_string oc (Dmp_core.Annotation.to_string ann);
        close_out oc;
        Printf.printf "wrote %d diverge branches to %s\n"
          (Dmp_core.Annotation.count ann) file
    | None -> print_string (Dmp_serve.Render.annotate_text ~algo ann)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Show the diverge branches and CFM points the compiler selects")
    Term.(const run $ bench_arg $ set_arg $ algo_arg $ provider_arg
          $ max_insts_arg $ out_arg)

(* ---- profile ---- *)

let profile_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sampling-mode" ]
          ~doc:
            "Collect by hardware-style sampling instead of exact \
             instrumentation: periodic, lbr, lbr<K> or mispredict. The \
             sparse samples are reconstructed to a dense profile before \
             printing.")
  in
  let period_arg =
    Arg.(value & opt int 1000
           & info [ "sampling-period" ] ~doc:"Sampling period (triggers).")
  in
  let seed_arg =
    Arg.(value & opt int 42
           & info [ "sampling-seed" ] ~doc:"Sampling jitter seed.")
  in
  let run bench set mode period seed max_insts =
    let spec = lookup_bench bench in
    let linked = Spec.linked spec in
    let input = spec.Spec.input (lookup_set set) in
    let profile =
      match mode with
      | None -> Dmp_profile.Profile.collect linked ~input ?max_insts
      | Some m ->
          let mode =
            match Dmp_sampling.Sampler.mode_of_string m with
            | Some mode -> mode
            | None ->
                Printf.eprintf
                  "unknown sampling mode %s; known: periodic, lbr, lbr<K>, \
                   mispredict\n"
                  m;
                exit 2
          in
          let config = { Dmp_sampling.Sampler.mode; period; seed } in
          let s =
            Dmp_sampling.Sampler.collect_source ?max_insts ~config linked
              (Dmp_exec.Source.live (Dmp_exec.Emulator.create linked ~input))
          in
          Printf.printf "sampled %s: samples=%d lbr-records=%d\n"
            (Dmp_sampling.Sampler.config_to_string config)
            (Dmp_sampling.Sampler.samples s)
            (Dmp_sampling.Sampler.lbr_captured s);
          Dmp_sampling.Reconstruct.profile linked s
    in
    print_string (Dmp_serve.Render.profile_text linked profile)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Show the per-branch edge/misprediction profile (exact or sampled)")
    Term.(const run $ bench_arg $ set_arg $ mode_arg $ period_arg $ seed_arg
          $ max_insts_arg)

(* ---- cfg ---- *)

let cfg_cmd =
  let func_arg =
    Arg.(value & opt string "main" & info [ "f"; "function" ]
           ~doc:"Function to dump.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run bench func dot =
    let spec = lookup_bench bench in
    let program = Lazy.force spec.Spec.program in
    match Program.find_func program func with
    | None ->
        Printf.eprintf "no function %s in %s\n" func bench;
        exit 2
    | Some fi ->
        let f = Program.func program fi in
        if dot then
          print_string (Dmp_cfg.Dot.of_cfg (Dmp_cfg.Cfg.of_func f))
        else Fmt.pr "%a@." Func.pp f
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Dump a benchmark function's CFG")
    Term.(const run $ bench_arg $ func_arg $ dot_arg)

(* ---- asm / disasm ---- *)

let asm_cmd =
  let run bench =
    let spec = lookup_bench bench in
    print_string (Dmp_ir.Asm.to_string (Lazy.force spec.Spec.program))
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Dump a benchmark program as textual assembly")
    Term.(const run $ bench_arg)

let disasm_cmd =
  let run bench =
    let spec = lookup_bench bench in
    let linked = Spec.linked spec in
    let image = Dmp_ir.Encode.encode linked in
    List.iter
      (fun (name, entry, size) ->
        Printf.printf "%s:  ; entry %d, %d instructions\n" name entry size)
      image.Dmp_ir.Encode.symbols;
    Array.iteri
      (fun addr w ->
        Printf.printf "%6d: %016x  %s\n" addr w
          (Dmp_ir.Encode.disassemble_word w))
      image.Dmp_ir.Encode.code
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Encode a benchmark to binary and disassemble the image")
    Term.(const run $ bench_arg)

(* ---- transform ---- *)

let transform_cmd =
  let module T = Dmp_transform in
  let passes_arg =
    Arg.(value & opt string "if-convert,meld"
           & info [ "passes" ]
               ~doc:
                 "Comma-separated pass pipeline: $(b,if-convert), $(b,meld) \
                  or $(b,none).")
  in
  let bias_arg =
    Arg.(value & opt float 0.05
           & info [ "bias-threshold" ]
               ~doc:
                 "Minimum profiled misprediction rate for conversion; 1.0 \
                  or higher disables both passes (identity transform).")
  in
  let asm_arg =
    Arg.(value & flag
           & info [ "asm" ] ~doc:"Dump the transformed program as assembly.")
  in
  let run bench set passes bias asm max_insts =
    let passes =
      match T.Pass_config.passes_of_string passes with
      | Ok ps -> ps
      | Error msg ->
          Printf.eprintf "bad --passes: %s\n" msg;
          exit 2
    in
    let config = { T.Pass_config.default with T.Pass_config.passes;
                   bias_threshold = bias } in
    let _, linked, input, profile = pipeline bench set max_insts in
    let r = T.Pipeline.run ~config linked profile in
    Fmt.pr "transform %s: %a@." bench T.Pass_config.pp config;
    Fmt.pr "%a@." T.Stats.pp r.T.Pipeline.stats;
    Fmt.pr "changed: %b  fresh regs: %s@." r.T.Pipeline.changed
      (match r.T.Pipeline.fresh_regs with
      | [] -> "-"
      | rs ->
          String.concat " "
            (List.map (Fmt.str "%a" Dmp_ir.Reg.pp) rs));
    if asm then print_string (Dmp_ir.Asm.to_string r.T.Pipeline.program);
    (* Validation: the transformed program must satisfy the structural
       invariants and be architecturally equivalent to the original on
       this input; any violation is an exit-2 failure. *)
    let diags =
      (if r.T.Pipeline.changed then
         Dmp_check.Invariants.check_linked r.T.Pipeline.linked
       else [])
      @ Dmp_check.Oracle.check_transform ?max_insts ~original:linked
          ~transformed:r.T.Pipeline.linked
          ~ignore_regs:r.T.Pipeline.fresh_regs ~input ()
    in
    let errs = Dmp_check.Diagnostic.errors diags in
    if errs = [] then
      Printf.printf "validation OK (%d diagnostic%s)\n" (List.length diags)
        (if List.length diags = 1 then "" else "s")
    else begin
      Printf.printf "validation FAIL (%d violation%s)\n" (List.length errs)
        (if List.length errs = 1 then "" else "s");
      List.iter (fun d -> Fmt.pr "  %a@." Dmp_check.Diagnostic.pp d) errs;
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Apply the software-predication pipeline (select-based \
          if-conversion + control-flow melding) to a benchmark and \
          validate the rewrite against the equivalence oracle")
    Term.(const run $ bench_arg $ set_arg $ passes_arg $ bias_arg $ asm_arg
          $ max_insts_arg)

(* ---- check ---- *)

let check_cmd =
  let module Check = Dmp_check in
  let benchmarks_arg =
    Arg.(value & opt string "all"
           & info [ "benchmarks" ]
               ~doc:
                 "Comma-separated benchmarks to check, $(b,all) for the \
                  whole registry, or $(b,none) to skip benchmarks (random \
                  programs only).")
  in
  let random_arg =
    Arg.(value & opt int 0
           & info [ "random" ]
               ~doc:"Also check N coverage-guided random programs.")
  in
  let seed_arg =
    Arg.(value & opt int 1
           & info [ "seed" ] ~doc:"Seed of the random-program generator.")
  in
  let mutate_arg =
    Arg.(value & flag
           & info [ "mutate-smoke" ]
               ~doc:
                 "Deliberately corrupt one annotation CFM per benchmark \
                  before validating; the checker must then fail (exit 2). \
                  For testing the checker itself.")
  in
  let mutate_transform_arg =
    Arg.(value & flag
           & info [ "mutate-transform-smoke" ]
               ~doc:
                 "Swap the operands of every select instruction the \
                  software-predication transform emits per benchmark \
                  (exchanging the predicated arms); the equivalence oracle \
                  must then fail (exit 2). For testing the transform \
                  oracle itself.")
  in
  let run benchmarks set max_insts random seed mutate mutate_transform =
    let set = lookup_set set in
    let specs =
      match benchmarks with
      | "all" -> Registry.all
      | "none" | "" -> []
      | names ->
          List.map lookup_bench (String.split_on_char ',' names)
    in
    let errors = ref 0 and warnings = ref 0 in
    let report (o : Check.Suite.outcome) =
      let errs = Check.Diagnostic.errors o.Check.Suite.diagnostics in
      let warns =
        List.length o.Check.Suite.diagnostics - List.length errs
      in
      errors := !errors + List.length errs;
      warnings := !warnings + warns;
      if errs = [] then
        Printf.printf "check %-12s OK (%d warning%s)\n%!" o.Check.Suite.name
          warns
          (if warns = 1 then "" else "s")
      else begin
        Printf.printf "check %-12s FAIL (%d violation%s)\n%!"
          o.Check.Suite.name (List.length errs)
          (if List.length errs = 1 then "" else "s");
        List.iter
          (fun d -> Fmt.pr "  %a@." Check.Diagnostic.pp d)
          errs
      end
    in
    List.iter
      (fun spec ->
        report
          (Check.Suite.check_benchmark ?max_insts ~mutate
             ~mutate_transform ~set spec))
      specs;
    if random > 0 then begin
      let outcomes, gen =
        Check.Suite.check_random ?max_insts ~n:random ~seed ()
      in
      List.iter report outcomes;
      print_endline (Check.Generator.coverage_report gen);
      if random >= 12 && not (Check.Generator.all_covered gen) then begin
        incr errors;
        print_endline
          "check random       FAIL (structural coverage incomplete)"
      end
      else if Check.Generator.all_covered gen then
        Printf.printf "coverage OK (%d/%d shapes)\n"
          (List.length Check.Generator.all_shapes)
          (List.length Check.Generator.all_shapes)
    end;
    Printf.printf "check: %d violation%s, %d warning%s\n" !errors
      (if !errors = 1 then "" else "s")
      !warnings
      (if !warnings = 1 then "" else "s");
    if !errors > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate CFG/annotation invariants and run the differential \
          oracle (live vs replay vs image simulation, exact vs sampled \
          profiles) over benchmarks and random programs")
    Term.(
      const run $ benchmarks_arg $ set_arg $ max_insts_arg $ random_arg
      $ seed_arg $ mutate_arg $ mutate_transform_arg)

(* ---- serve / client ---- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(value & opt string "dmp.sock" & info [ "socket" ] ~doc)

let serve_cmd =
  let tcp_arg =
    Arg.(value & opt (some int) None
           & info [ "tcp-port" ]
               ~doc:"Also listen on 127.0.0.1:PORT.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
           & info [ "j"; "jobs" ]
               ~doc:
                 "Worker count for parallel stages and request admission \
                  (default: DMP_JOBS clamped to the recommended domain \
                  count).")
  in
  let mem_budget_arg =
    Arg.(value & opt (some int) None
           & info [ "mem-budget" ]
               ~doc:
                 "Byte budget of the in-memory stage LRU (traces, images, \
                  profiles, baselines, selections); default unlimited.")
  in
  let response_budget_arg =
    Arg.(value & opt (some int) None
           & info [ "response-budget" ]
               ~doc:
                 "Byte budget of the rendered-response LRU (default 64 \
                  MiB).")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
           & info [ "cache-dir" ]
               ~doc:
                 "Persist traces, profiles, baseline statistics and DMP \
                  statistics in this disk cache, so a restarted daemon \
                  answers repeated run requests without simulating.")
  in
  let run socket tcp jobs mem_budget response_budget cache_dir max_insts =
    (* The daemon is long-lived: oversubscribing its domains would
       degrade every request, so unlike the offline CLI it refuses
       rather than obeys. *)
    let cap = Domain.recommended_domain_count () in
    (match jobs with
    | Some j when j < 1 ->
        Printf.eprintf "dmp serve: --jobs must be >= 1, got %d\n" j;
        exit 2
    | Some j when j > cap ->
        Printf.eprintf
          "dmp serve: --jobs %d exceeds this machine's %d recommended \
           domains; refusing to oversubscribe the daemon\n"
          j cap;
        exit 2
    | Some _ | None -> ());
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let service =
      Dmp_serve.Service.create ?max_insts ?cache_dir:cache_dir ?jobs
        ?mem_budget ?response_budget ()
    in
    let server =
      Dmp_serve.Server.create ~service ~unix_path:socket ?tcp_port:tcp ()
    in
    let stop _ = Dmp_serve.Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "dmp serve: listening on %s%s (jobs=%d)\n%!" socket
      (match tcp with
      | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
      | None -> "")
      (Dmp_serve.Service.jobs service);
    Dmp_serve.Server.run server;
    (* Drained: every accepted request has been answered, so the final
       stats dump is complete. *)
    print_string (Dmp_serve.Service.stats_text service)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the annotation daemon: a Unix-domain (and optional loopback \
          TCP) socket serving annotate / profile / run / stats requests \
          from an in-memory LRU over the disk cache, with identical \
          in-flight requests coalesced. SIGTERM drains in-flight requests \
          and dumps final stats.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ mem_budget_arg
      $ response_budget_arg $ cache_dir_arg $ max_insts_arg)

let client_cmd =
  let kind_arg =
    Arg.(
      value
      & pos 0 string "run"
      & info [] ~docv:"KIND" ~doc:"Request kind: annotate, profile, run or \
                                   stats.")
  in
  let wait_arg =
    Arg.(value & opt float 5.
           & info [ "wait" ]
               ~doc:"Retry the connection for this many seconds (startup \
                     grace).")
  in
  let run kind socket wait bench set algo =
    let req =
      match kind with
      | "annotate" -> Dmp_serve.Protocol.Annotate { bench; set; algo }
      | "profile" -> Dmp_serve.Protocol.Profile { bench; set }
      | "run" -> Dmp_serve.Protocol.Run { bench; set; algo }
      | "stats" -> Dmp_serve.Protocol.Stats
      | k ->
          Printf.eprintf
            "unknown request kind %s; known: annotate, profile, run, stats\n"
            k;
          exit 2
    in
    let conn =
      match Dmp_serve.Client.connect_unix ~wait_s:wait socket with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "dmp client: cannot connect to %s: %s\n" socket
            (Unix.error_message e);
          exit 1
    in
    Fun.protect
      ~finally:(fun () -> Dmp_serve.Client.close conn)
      (fun () ->
        match Dmp_serve.Client.request conn req with
        | Ok { Dmp_serve.Protocol.ok = true; body; _ } -> print_string body
        | Ok { Dmp_serve.Protocol.ok = false; body; _ } ->
            Printf.eprintf "dmp client: server error: %s\n" body;
            exit 1
        | Error msg ->
            Printf.eprintf "dmp client: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running `dmp serve` daemon and print the \
          response body (byte-identical to the offline command's output).")
    Term.(
      const run $ kind_arg $ socket_arg $ wait_arg $ bench_arg $ set_arg
      $ algo_arg)

(* ---- experiment ---- *)

let experiment_cmd =
  let target_arg =
    Arg.(
      value
      & pos 0 string "table2"
      & info [] ~docv:"TARGET" ~doc:(String.concat ", " Targets.all))
  in
  let run target =
    if not (Targets.is_valid target) then begin
      Printf.eprintf "unknown experiment target %s; valid targets: %s\n"
        target
        (String.concat ", " Targets.all);
      exit 2
    end;
    let runner = Runner.create () in
    match Targets.render runner target with
    | Ok out -> print_string out
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure of the paper")
    Term.(const run $ target_arg)

let () =
  (* Fail fast on a malformed DMP_JOBS before any command runs; a value
     that does not parse as a positive integer is a configuration
     error, not a hint. *)
  (match Dmp_exec.Pool.env_jobs () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "dmp: %s\n" msg;
      exit 2);
  (match Disk_cache.env_max_bytes () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "dmp: %s\n" msg;
      exit 2);
  let info =
    Cmd.info "dmp" ~version:"1.0.0"
      ~doc:
        "Profile-assisted compiler support for dynamic predication in \
         diverge-merge processors (CGO 2007 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; annotate_cmd; profile_cmd; cfg_cmd;
            asm_cmd; disasm_cmd; transform_cmd; check_cmd; experiment_cmd;
            serve_cmd; client_cmd ]))
