(* Repository benchmark: end-to-end and per-layer performance of the
   reproduction on four workloads (see workloads.ml and README.md).

   Usage (from the repository root):
     perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--input-set reduced|ref] [--runs N] [--bless]
     perf.exe --smoke

   Every workload runs in child processes of this executable, one at a
   time: per-workload peak RSS is then the child's own, and no
   process-global memo (decoded images, linked programs) carries over
   from one measurement into the next.

   --trace 0   end-to-end metrics of untraced runs
   --trace 1   per-layer metrics: the workload at -j1, untraced and then
               traced; spans are written to _perf/spans-<workload>.jsonl
   --runs N    N runs with seeds S, S+1, ...: median and quartiles
   --bless     rewrite bench/perf/golden/ from this run
   --smoke     capped run of every workload and both trace modes; checks
               the printed metric names and units against BENCHMARK.json

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module W = Workloads

type opts = {
  mutable workload : string;
  mutable runs : int;
  mutable child : bool;  (* internal: run the job read from stdin *)
  mutable cfg : W.cfg;
}

let usage_error msg =
  Printf.eprintf "perf: %s\nworkloads: %s, all\n" msg (String.concat ", " W.names);
  exit 2

let parse_args args =
  let o =
    { workload = "all"; runs = 1; child = false;
      cfg =
        { W.seed = 1; seconds = 10.; trace = false; set = Dmp_workload.Input_gen.Reduced;
          smoke = false; bless = false; setup_only = false; jobs = 1; cache_dir = "" } }
  in
  let set f = o.cfg <- f o.cfg in
  let int flag v ~min =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | Some _ | None -> usage_error (Printf.sprintf "bad %s %S" flag v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if w <> "all" && not (List.mem w W.names) then
          usage_error ("unknown workload " ^ w);
        o.workload <- w;
        go rest
    | "--seed" :: v :: rest ->
        let seed = int "--seed" v ~min:0 in
        set (fun c -> { c with W.seed });
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some seconds when seconds >= 0. -> set (fun c -> { c with W.seconds })
        | Some _ | None -> usage_error (Printf.sprintf "bad --seconds %S" v));
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> set (fun c -> { c with W.trace = false })
        | "1" -> set (fun c -> { c with W.trace = true })
        | _ -> usage_error (Printf.sprintf "bad --trace %S (0 or 1)" v));
        go rest
    | "--input-set" :: v :: rest ->
        (match v with
        | "reduced" -> set (fun c -> { c with W.set = Dmp_workload.Input_gen.Reduced })
        | "ref" -> set (fun c -> { c with W.set = Dmp_workload.Input_gen.Ref })
        | _ -> usage_error (Printf.sprintf "bad --input-set %S (reduced or ref)" v));
        go rest
    | "--runs" :: v :: rest ->
        o.runs <- int "--runs" v ~min:1;
        go rest
    | "--smoke" :: rest ->
        set (fun c -> { c with W.smoke = true });
        go rest
    | "--bless" :: rest ->
        set (fun c -> { c with W.bless = true });
        go rest
    | "--child" :: rest ->
        o.child <- true;
        go rest
    | flag :: _ -> usage_error ("unknown or incomplete option " ^ flag)
  in
  go args;
  o

(* ---- child processes ---- *)

let work_dir = "_perf"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* The child being waited for: an interrupted run stops it first. *)
let running_child = ref None

let () =
  let stop _ =
    Option.iter
      (fun pid ->
        try
          Unix.kill pid Sys.sigterm;
          ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ())
      !running_child;
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* Run one phase in a child: the job goes down its stdin and the result
   comes back over its stdout, both marshalled (same executable on both
   ends). The child's own diagnostics go to the shared stderr. *)
let spawn phase (cfg : W.cfg) =
  let exe = Sys.executable_name in
  let job_rd, job_wr = Unix.pipe ~cloexec:true () in
  let res_rd, res_wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--child" |] job_rd res_wr Unix.stderr in
  running_child := Some pid;
  Unix.close job_rd;
  Unix.close res_wr;
  let oc = Unix.out_channel_of_descr job_wr in
  Marshal.to_channel oc (phase, cfg) [];
  close_out oc;
  let ic = Unix.in_channel_of_descr res_rd in
  let result =
    match (Marshal.from_channel ic : W.result) with
    | r -> Some r
    | exception (End_of_file | Failure _) -> None
  in
  close_in ic;
  let status = Unix.waitpid [] pid in
  running_child := None;
  match (status, result) with
  | (_, Unix.WEXITED 0), Some r -> r
  | (_, status), _ ->
      let how =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exited with %d" c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "killed by signal %d" s
      in
      Printf.eprintf "perf: %s child %s\n" phase how;
      exit 2

let child_main () =
  let phase, cfg = (Marshal.from_channel stdin : string * W.cfg) in
  (* The result travels over the original stdout; anything else printed
     goes to stderr so it cannot corrupt the marshalled value. *)
  let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  Marshal.to_channel out (W.run_child phase cfg) [];
  close_out out

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string; value : float }

let median = W.median

(* Python's statistics.quantiles(xs, n=4), the default exclusive method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let timed_layers =
  [ "ir"; "exec"; "profile"; "sampling"; "core"; "transform"; "uarch";
    "experiments"; "bench" ]

let setup_layers =
  [ "workload"; "ir"; "exec"; "profile"; "sampling"; "core"; "transform";
    "uarch"; "experiments"; "check"; "bench" ]

let call_layers =
  [ "ir"; "exec"; "profile"; "sampling"; "core"; "transform"; "uarch";
    "experiments" ]

(* Speed of the calls of one name, in instructions per host second. *)
let rate_metrics =
  [ ("uarch.baseline.minsts_per_s", "Sim.run_image baseline");
    ("uarch.dmp.minsts_per_s", "Sim.run_image dmp");
    ("uarch.mpt.minsts_per_s", "Sim.run_image mpt");
    ("exec.capture_minsts_per_s", "Trace.capture");
    ("exec.decode_minsts_per_s", "Image.of_trace");
    ("profile.minsts_per_s", "Profile.collect_trace");
    ("sampling.minsts_per_s", "Sampler.collect_trace") ]

let extra_metrics =
  [ ("uarch.dmp.merge_ratio", "ratio"); ("uarch.mpt.mpp_hit_ratio", "ratio");
    ("experiments.dedup_hits", "count") ]

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let count f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let per_layer ~spans ~untraced ~traced ~extra =
  let in_phase p = List.filter (fun (s : Spans.t) -> s.Spans.phase = p) spans in
  let timed = in_phase "timed" and setup = in_phase "setup" in
  let duration (s : Spans.t) = s.Spans.stop -. s.Spans.start in
  let of_layer l ss = List.filter (fun (s : Spans.t) -> s.Spans.layer = l) ss in
  let shares prefix ss layers =
    let total = sum duration (List.filter (fun (s : Spans.t) -> s.Spans.parent = -1) ss) in
    List.map
      (fun l ->
        let self = sum (fun (s : Spans.t) -> s.Spans.self) (of_layer l ss) in
        { name = prefix ^ l ^ ".self_pct"; unit_ = "%";
          value = (if total > 0. then 100. *. self /. total else 0.) })
      layers
  in
  let npasses = float_of_int (max 1 (List.length traced)) in
  let calls =
    List.map
      (fun l ->
        { name = l ^ ".calls"; unit_ = "count";
          value = sum (fun (s : Spans.t) -> float_of_int s.Spans.calls) (of_layer l timed) /. npasses })
      call_layers
  in
  let rates =
    List.map
      (fun (name, call) ->
        let ss = List.filter (fun (s : Spans.t) -> s.Spans.name = call) spans in
        let secs = sum duration ss in
        let insts = sum (fun (s : Spans.t) -> float_of_int s.Spans.insts) ss in
        { name; unit_ = "Minst/s"; value = (if secs > 0. then insts /. 1e6 /. secs else 0.) })
      rate_metrics
  in
  let extras =
    List.map
      (fun (name, unit_) ->
        { name; unit_; value = Option.value (List.assoc_opt name extra) ~default:0. })
      extra_metrics
  in
  [ { name = "trace.pass_s"; unit_ = "s"; value = median traced };
    { name = "trace.overhead_pct"; unit_ = "%";
      value = 100. *. ((median traced /. median untraced) -. 1.) } ]
  @ shares "" timed timed_layers
  @ shares "setup." setup setup_layers
  @ calls @ rates @ extras

(* ---- one run of one workload ---- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  report : string list;
  spans : Spans.t list;
  golden : string list;
}

(* Set-up is sampled in fresh processes until there are at least three
   samples and a second of set-up time, so that a set-up of a few
   milliseconds still gets a steady median. *)
let min_setup_samples = 3
let min_setup_seconds = 1.
let max_setup_samples = 20

let run_paper (cfg : W.cfg) =
  let cache_dir = Filename.concat work_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> remove_tree cache_dir)
    (fun () ->
      (* Traced runs use one job so Runner stage seconds add up. *)
      let jobs = if cfg.W.trace then 1 else 2 in
      let cfg = { cfg with W.jobs; cache_dir } in
      let cold = spawn "paper-cold" cfg in
      let warm trace = spawn "paper-warm" { cfg with W.trace } in
      let warms =
        if cfg.W.trace then [ warm false; warm true ]
        else
          let start = Unix.gettimeofday () in
          let rec go acc =
            let acc = warm false :: acc in
            if Unix.gettimeofday () -. start >= cfg.W.seconds then List.rev acc else go acc
          in
          go []
      in
      let mismatches =
        List.concat_map
          (fun (w : W.result) ->
            List.filter_map
              (fun (target, text) ->
                if List.assoc_opt target w.W.outputs = Some text then None
                else Some (Printf.sprintf "%s: warm output differs from cold" target))
              cold.W.outputs)
          warms
      in
      let all = cold :: warms in
      let gap =
        match W.fig5l_all_best_heur cold.W.outputs with
        | Some v ->
            [ Printf.sprintf
                "fig5l all-best-heur amean %.2f%% (paper %.1f%%): paper_gap_pts %.2f"
                v W.paper_all_best_heur_pct
                (Float.abs (W.paper_all_best_heur_pct -. v)) ]
        | None -> []
      in
      let pass_s = List.concat_map (fun (w : W.result) -> w.W.pass_s) warms in
      let traced = List.concat_map (fun (w : W.result) -> w.W.traced_pass_s) warms in
      let spans = List.concat_map (fun (w : W.result) -> w.W.spans) all in
      { metrics =
          (if cfg.W.trace then
             per_layer ~spans ~untraced:pass_s ~traced
               ~extra:(List.concat_map (fun (w : W.result) -> w.W.extra) warms)
           else
             [ { name = "wall_s"; unit_ = "s"; value = median pass_s };
               { name = "setup_s"; unit_ = "s"; value = median cold.W.setup_s };
               { name = "peak_rss_mb"; unit_ = "MB";
                 value = median (List.map (fun (w : W.result) -> w.W.rss_mb) warms) } ]);
        attempted = count (fun (w : W.result) -> w.W.attempted) all;
        failed = List.length mismatches + count (fun (w : W.result) -> w.W.failed) all;
        failures = List.concat_map (fun (w : W.result) -> w.W.failures) all @ mismatches;
        report =
          Printf.sprintf "cold pass %.2f s at -j%d; %d warm pass(es) in fresh processes"
            (median cold.W.setup_s) jobs (List.length warms)
          :: Printf.sprintf "stdout md5 %s (the bytes bench/main.exe prints)"
               (W.md5 (String.concat "" (List.map snd cold.W.outputs)))
          :: gap;
        spans;
        golden = cold.W.golden })

let run_single (cfg : W.cfg) workload =
  let main = spawn workload cfg in
  let rec sample setups =
    let n = List.length setups in
    if
      cfg.W.trace || cfg.W.smoke || n >= max_setup_samples
      || (n >= min_setup_samples && sum Fun.id setups >= min_setup_seconds)
    then setups
    else
      let r = spawn workload { cfg with W.setup_only = true } in
      sample (setups @ r.W.setup_s)
  in
  let setups = sample main.W.setup_s in
  { metrics =
      (if cfg.W.trace then
         per_layer ~spans:main.W.spans ~untraced:main.W.pass_s
           ~traced:main.W.traced_pass_s ~extra:main.W.extra
       else
         [ { name = "wall_s"; unit_ = "s"; value = main.W.op_s };
           { name = "setup_s"; unit_ = "s"; value = median setups };
           { name = "peak_rss_mb"; unit_ = "MB"; value = main.W.rss_mb } ]);
    attempted = main.W.attempted;
    failed = main.W.failed;
    failures = main.W.failures;
    report =
      Printf.sprintf "%d timed pass(es) [%s s], per-operation medians %.3f s; %d set-up(s) [%s s]"
        (List.length main.W.pass_s)
        (String.concat " " (List.map (Printf.sprintf "%.3f") main.W.pass_s))
        main.W.op_s
        (List.length setups)
        (String.concat " " (List.map (Printf.sprintf "%.3f") setups))
      :: main.W.report;
    spans = main.W.spans;
    golden = main.W.golden }

let run_workload cfg workload =
  ensure_work_dir ();
  if workload = "paper-exact" then run_paper cfg else run_single cfg workload

(* ---- reporting ---- *)

let json_line ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                metrics) ) ])

(* Self seconds by layer and by call name, for the traced view. *)
let span_breakdown spans =
  let by key ss =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (s : Spans.t) ->
        let k = key s in
        let c, t = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0.) in
        Hashtbl.replace tbl k (c + s.Spans.calls, t +. s.Spans.self))
      ss;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
  in
  List.concat_map
    (fun phase ->
      let ss = List.filter (fun (s : Spans.t) -> s.Spans.phase = phase) spans in
      if ss = [] then []
      else
        (Printf.sprintf "-- %s: self seconds by layer --" phase
        :: List.map
             (fun (l, (c, t)) -> Printf.sprintf "  %-12s %10.3f s  %7d calls" l t c)
             (by (fun s -> s.Spans.layer) ss))
        @ (Printf.sprintf "-- %s: self seconds by call --" phase
          :: List.map
               (fun (n, (c, t)) -> Printf.sprintf "  %-44s %10.3f s  %7d calls" n t c)
               (by (fun s -> s.Spans.layer ^ " " ^ s.Spans.name) ss)))
    [ "setup"; "timed" ]

let write_spans workload spans =
  let path = Filename.concat work_dir ("spans-" ^ workload ^ ".jsonl") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun s -> output_string oc (Json.to_string (Spans.to_json s) ^ "\n")) spans);
  path

let print_outcome (cfg : W.cfg) workload out =
  Printf.printf "== perf %s: seed %d, input set %s, %g s, trace %d ==\n" workload cfg.W.seed
    (Dmp_workload.Input_gen.set_to_string cfg.W.set)
    cfg.W.seconds
    (if cfg.W.trace then 1 else 0);
  List.iter (Printf.printf "%s\n") out.report;
  if cfg.W.trace then begin
    List.iter (Printf.printf "%s\n") (span_breakdown out.spans);
    Printf.printf "spans: %s\n" (write_spans workload out.spans)
  end;
  List.iter (fun m -> Printf.printf "%-34s %14.6g %s\n" m.name m.value m.unit_) out.metrics;
  Printf.printf "error_rate %d/%d = %g\n" out.failed out.attempted
    (float_of_int out.failed /. float_of_int (max 1 out.attempted));
  List.iteri (fun i f -> if i < 20 then Printf.printf "FAILED %s\n" f) out.failures

let bless cfg workload out =
  let path = W.golden_path workload cfg in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) out.golden;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path (List.length out.golden)

(* --runs N: one run per seed, then median and quartiles per metric. *)
let run_many o workload =
  let base = o.cfg.W.seed in
  let outs =
    List.init o.runs (fun i ->
        let cfg = { o.cfg with W.seed = base + i } in
        let out = run_workload cfg workload in
        print_outcome cfg workload out;
        print_endline (json_line ~attempted:out.attempted ~failed:out.failed out.metrics);
        flush stdout;
        out)
  in
  Printf.printf "== perf %s: %d runs (seeds %d..%d) ==\n" workload o.runs base
    (base + o.runs - 1);
  Printf.printf "%-34s %14s %14s %14s %9s %s\n" "metric" "median" "q1" "q3" "iqr/med" "unit";
  let medians =
    List.map
      (fun m ->
        let vs =
          List.map
            (fun out -> (List.find (fun m' -> m'.name = m.name) out.metrics).value)
            outs
        in
        let med = median vs and q1, q3 = quartiles vs in
        Printf.printf "%-34s %14.6g %14.6g %14.6g %8.2f%% %s\n" m.name med q1 q3
          (if med <> 0. then 100. *. (q3 -. q1) /. Float.abs med else 0.)
          m.unit_;
        { m with value = med })
      (List.hd outs).metrics
  in
  (medians, count (fun out -> out.attempted) outs, count (fun out -> out.failed) outs)

(* ---- smoke ---- *)

let name_ok name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let declared_metrics file key =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.member key (Json.parse text) with
  | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith (file ^ ": metric without a name or unit"))
        ms
  | _ -> failwith (Printf.sprintf "%s: no %S list" file key)

let smoke o =
  let e2e = declared_metrics "BENCHMARK.json" "end_to_end" in
  let layered = declared_metrics "BENCHMARK.json" "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (n, _) -> if not (name_ok n) then problem "BENCHMARK.json name %S" n)
    (e2e @ layered);
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let t0 = Unix.gettimeofday () in
          let out = run_workload { o.cfg with W.seconds = 0.; trace } workload in
          let declared = if trace then layered else e2e in
          let printed = List.map (fun m -> (m.name, m.unit_)) out.metrics in
          List.iter
            (fun (n, u) ->
              match List.assoc_opt n printed with
              | Some u' when u' = u -> ()
              | Some u' -> problem "%s: %s printed in %s, declared %s" workload n u' u
              | None -> problem "%s: %s not printed (trace %b)" workload n trace)
            declared;
          List.iter
            (fun m ->
              if not (name_ok m.name) then problem "%s: bad metric name %S" workload m.name;
              if not (List.mem_assoc m.name declared) then
                problem "%s: %s printed but not declared" workload m.name;
              if Float.is_nan m.value then problem "%s: %s is nan" workload m.name)
            out.metrics;
          if out.failed <> 0 || out.attempted = 0 then
            problem "%s: error_rate %d/%d (%s)" workload out.failed out.attempted
              (String.concat "; " out.failures);
          Printf.printf "smoke %-16s trace %d: %d metrics, %d ops, %.1f s\n%!" workload
            (if trace then 1 else 0)
            (List.length out.metrics) out.attempted
            (Unix.gettimeofday () -. t0))
        [ false; true ])
    W.names;
  remove_tree work_dir;
  match !problems with
  | [] -> print_endline "perf smoke: OK"
  | ps ->
      List.iter (Printf.printf "perf smoke: %s\n") (List.rev ps);
      exit 1

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  if o.child then child_main ()
  else if o.cfg.W.smoke then smoke o
  else
    let workloads = if o.workload = "all" then W.names else [ o.workload ] in
    let ok =
      List.for_all Fun.id
        (List.map
           (fun workload ->
             let metrics, attempted, failed =
               if o.runs > 1 then run_many o workload
               else begin
                 let out = run_workload o.cfg workload in
                 print_outcome o.cfg workload out;
                 if o.cfg.W.bless then bless o.cfg workload out;
                 (out.metrics, out.attempted, out.failed)
               end
             in
             print_endline (json_line ~attempted ~failed metrics);
             flush stdout;
             failed = 0)
           workloads)
    in
    if not ok then exit 1
