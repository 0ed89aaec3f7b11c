(* The daemon's request core, transport-free so tests can drive it
   directly from threads.

   Layering per request:

     response LRU  (rendered report strings, keyed by the request
        |           fingerprint "kind/bench/set[/algo]")
     in-flight table (identical concurrent requests coalesce onto the
        |            first one's computation — exactly one execution)
     admission semaphore (at most [jobs] pipeline executions at once)
     Runner        (stage LRU over the disk cache: traces, images,
                    profiles, baselines, selections)

   The response-cache probe and the in-flight probe happen under one
   mutex, so a request either hits the cache, joins an in-flight
   computation, or becomes the unique computer of its key — there is
   no window for two computers of the same key. The computer publishes
   its result to the cache *before* leaving the in-flight table, so
   "exactly one execution per key" holds deterministically, not just
   probabilistically. Errors are published to waiters but never
   cached. *)

open Dmp_workload
open Dmp_experiments

type cell = {
  cond : Condition.t;
  mutable result : (string, string) result option;
}

type t = {
  runner : Runner.t;
  jobs : int;
  admit : Semaphore.Counting.t;
  responses : string Dmp_exec.Mem_cache.t;
  inflight : (string, cell) Hashtbl.t;
  m : Mutex.t;
  mutable coalesced : int;
  mutable requests : int;
  mutable errors : int;
  (* Response-LRU key audit: run responses are keyed by
     "run/bench/set/algo", but two algorithms can select behaviourally
     identical annotations — the table maps each distinct
     (bench, set, selection fingerprint) to the first algorithm that
     computed it, and [fp_aliased] counts later run computations whose
     simulation the runner's fingerprint memo answered without
     simulating. *)
  run_fps : (string, string) Hashtbl.t;
  mutable fp_aliased : int;
  hists : Histogram.t array;
  compute_hook : (string -> unit) option;
}

let default_response_budget = 64 * 1024 * 1024

let create ?benchmarks ?max_insts ?cache_dir ?jobs ?mem_budget
    ?(response_budget = default_response_budget) ?compute_hook () =
  let jobs =
    match jobs with Some j -> j | None -> Dmp_exec.Pool.default_jobs ()
  in
  if jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  {
    runner =
      Runner.create ?benchmarks ?max_insts ?cache_dir ~jobs ?mem_budget ();
    jobs;
    admit = Semaphore.Counting.make jobs;
    responses =
      Dmp_exec.Mem_cache.create ~budget:response_budget ~name:"responses" ();
    inflight = Hashtbl.create 32;
    m = Mutex.create ();
    coalesced = 0;
    requests = 0;
    errors = 0;
    run_fps = Hashtbl.create 32;
    fp_aliased = 0;
    hists = Array.init Protocol.kind_count (fun _ -> Histogram.create ());
    compute_hook;
  }

let runner t = t.runner
let jobs t = t.jobs

let coalesced t =
  Mutex.lock t.m;
  let n = t.coalesced in
  Mutex.unlock t.m;
  n

let fingerprint_audit t =
  Mutex.lock t.m;
  let r = (Hashtbl.length t.run_fps, t.fp_aliased) in
  Mutex.unlock t.m;
  r

let response_stats t = Dmp_exec.Mem_cache.stats t.responses
let histogram t req = t.hists.(Protocol.kind_index req)

(* ---------- request validation (error bodies match the CLI's
   stderr diagnostics, newline excepted) ---------- *)

let validate_bench t bench =
  if List.mem bench (Runner.names t.runner) then Ok ()
  else
    Error
      (Printf.sprintf "unknown benchmark %s; known: %s" bench
         (String.concat ", " (Runner.names t.runner)))

let validate_set set =
  match Input_gen.set_of_string_opt set with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown input set %s; known: reduced, train, ref" set)

let validate_algo algo =
  match Variants.of_string algo with
  | Some _ -> Ok ()
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %s; known: %s" algo
           (String.concat ", " Variants.names))

let ( let* ) = Result.bind

(* ---------- coalescing response cache ---------- *)

let cached t key compute =
  Mutex.lock t.m;
  match Dmp_exec.Mem_cache.find t.responses key with
  | Some body ->
      Mutex.unlock t.m;
      Ok body
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some cell ->
          t.coalesced <- t.coalesced + 1;
          let rec wait () =
            match cell.result with
            | Some r -> r
            | None ->
                Condition.wait cell.cond t.m;
                wait ()
          in
          let r = wait () in
          Mutex.unlock t.m;
          r
      | None ->
          let cell = { cond = Condition.create (); result = None } in
          Hashtbl.replace t.inflight key cell;
          Mutex.unlock t.m;
          (match t.compute_hook with Some h -> h key | None -> ());
          let r =
            Semaphore.Counting.acquire t.admit;
            Fun.protect
              ~finally:(fun () -> Semaphore.Counting.release t.admit)
              (fun () ->
                try Ok (compute ()) with
                | Invalid_argument msg | Failure msg -> Error msg
                | e -> Error (Printexc.to_string e))
          in
          Mutex.lock t.m;
          (match r with
          | Ok body ->
              Dmp_exec.Mem_cache.add t.responses key
                ~size:(String.length key + String.length body + 64)
                body
          | Error _ -> ());
          cell.result <- Some r;
          Condition.broadcast cell.cond;
          Hashtbl.remove t.inflight key;
          Mutex.unlock t.m;
          r)

(* ---------- per-kind handlers ---------- *)

let annotate t ~bench ~set ~algo =
  let* () = validate_bench t bench in
  let* s = validate_set set in
  let* () = validate_algo algo in
  cached t
    (Printf.sprintf "annotate/%s/%s/%s" bench set algo)
    (fun () ->
      Render.annotate_text ~algo (Runner.selection t.runner bench s ~algo))

let profile t ~bench ~set =
  let* () = validate_bench t bench in
  let* s = validate_set set in
  cached t
    (Printf.sprintf "profile/%s/%s" bench set)
    (fun () ->
      Render.profile_text
        (Runner.linked t.runner bench)
        (Runner.profile t.runner bench s))

let audit_fingerprint t ~bench ~set ~algo fp =
  let fkey = Printf.sprintf "%s/%s/%s" bench set fp in
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.run_fps fkey with
  | Some first -> if first <> algo then t.fp_aliased <- t.fp_aliased + 1
  | None -> Hashtbl.replace t.run_fps fkey algo);
  Mutex.unlock t.m

let run t ~bench ~set ~algo =
  let* () = validate_bench t bench in
  let* s = validate_set set in
  let* () = validate_algo algo in
  cached t
    (Printf.sprintf "run/%s/%s/%s" bench set algo)
    (fun () ->
      let ann = Runner.selection t.runner bench s ~algo in
      audit_fingerprint t ~bench ~set ~algo
        (Runner.annotation_fingerprint t.runner bench ann);
      let base = Runner.baseline ~set:s t.runner bench in
      (* Memoized by selection fingerprint: an aliased algorithm's run
         reuses the earlier simulation's statistics. *)
      let dmp = Runner.dmp_memo ~set:s t.runner bench ann in
      Render.run_text ~algo ~ann ~base ~dmp)

let stats_text t =
  let b = Buffer.create 1024 in
  Mutex.lock t.m;
  let requests = t.requests
  and errors = t.errors
  and coalesced = t.coalesced
  and inflight = Hashtbl.length t.inflight
  and fingerprints = Hashtbl.length t.run_fps
  and fp_aliased = t.fp_aliased in
  Mutex.unlock t.m;
  Printf.bprintf b "== dmp serve stats ==\n";
  Printf.bprintf b "requests=%d errors=%d coalesced=%d inflight=%d jobs=%d\n"
    requests errors coalesced inflight t.jobs;
  Printf.bprintf b "selections: fingerprints=%d aliased-runs=%d\n" fingerprints
    fp_aliased;
  Buffer.add_string b
    (Dmp_exec.Mem_cache.stats_line "responses"
       (Dmp_exec.Mem_cache.stats t.responses));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Dmp_exec.Mem_cache.stats_line "stages" (Runner.mem_stats t.runner));
  Buffer.add_char b '\n';
  Array.iteri
    (fun i h ->
      Printf.bprintf b "latency %-8s %s\n"
        Protocol.kind_names.(i)
        (Histogram.summary h))
    t.hists;
  Printf.bprintf b "stage calls:\n%s" (Runner.timing_summary t.runner);
  Buffer.contents b

let respond t req =
  let t0 = Unix.gettimeofday () in
  let r =
    match req with
    | Protocol.Stats -> Ok (stats_text t)
    | Protocol.Annotate { bench; set; algo } -> annotate t ~bench ~set ~algo
    | Protocol.Profile { bench; set } -> profile t ~bench ~set
    | Protocol.Run { bench; set; algo } -> run t ~bench ~set ~algo
  in
  let ns =
    let x = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    if x < 0 then 0 else x
  in
  Histogram.record t.hists.(Protocol.kind_index req) ns;
  Mutex.lock t.m;
  t.requests <- t.requests + 1;
  (match r with Error _ -> t.errors <- t.errors + 1 | Ok _ -> ());
  Mutex.unlock t.m;
  (r, ns)
