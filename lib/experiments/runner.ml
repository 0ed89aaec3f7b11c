(* Shared experiment pipeline with caching of the expensive stages
   (linking, trace capture, profiling, baseline simulation) across
   figures. The architectural emulator runs once per (benchmark, input
   set): its event stream is captured into a packed [Trace.t] under the
   per-benchmark lock; the trace is decoded once into a flat [Image.t]
   and every later baseline / dmp call replays the image (profiling
   still walks the packed trace — it runs once per pair anyway).

   Storage: every stage value lives in one runner-wide byte-budgeted
   [Mem_cache] (an LRU keyed by "kind/benchmark/input-set[/params]"),
   layered over the optional persistent [Disk_cache]. With no budget
   (the offline default) nothing is ever evicted and the behaviour is
   the old unbounded memoisation; the serving daemon runs the same
   runner with a budget, so a long-lived process holds the hottest
   traces / images / profiles / selections in memory and transparently
   recomputes (or reloads from disk) anything evicted.

   Concurrency: every entry owns a lock that guards its one-shot
   linking and its stage computations, so a stage is computed exactly
   once no matter how many domains ask for it (while cached), and
   distinct benchmarks proceed in parallel. The runner-wide state
   (stage timings, the mem cache) has its own locking and is never
   held across a stage computation. *)

open Dmp_ir
open Dmp_exec
open Dmp_profile
open Dmp_uarch
open Dmp_workload

type sim_mode =
  | Exact
  | Segmented of int
  | Sampled of { segments : int; warmup : int; window : int }

type entry = {
  spec : Spec.t;
  lock : Mutex.t;
  mutable linked_v : Linked.t option;
}

(* One variant per stage kind so a single LRU (one recency order, one
   byte budget) covers them all; the key namespaces ("trace/...",
   "image/...") make a kind mismatch impossible. *)
type value =
  | VTrace of Trace.t
  | VImage of Image.t
  | VProfile of Profile.t
  | VStats of Stats.t
  | VCkpts of Checkpoint.t list
  | VAnn of Dmp_core.Annotation.t
  | VTransform of Dmp_transform.Pipeline.result
      (* the software-predication pipeline's output for one
         (benchmark, input set, pass config) *)

type timing = { mutable calls : int; mutable seconds : float }

type t = {
  entries : (string, entry) Hashtbl.t;
  order : string list;
  max_insts : int option;
  cache : Disk_cache.t option;
  jobs : int option;
  sim_mode : sim_mode;
  mem : value Mem_cache.t;
  timings : (string, timing) Hashtbl.t;
  timings_lock : Mutex.t;
}

let validate_sim_mode = function
  | Exact -> ()
  | Segmented n ->
      if n < 1 then invalid_arg "Runner: Segmented needs >= 1 segment"
  | Sampled { segments; warmup; window } ->
      if segments < 1 then invalid_arg "Runner: Sampled needs >= 1 segment";
      if warmup < 0 || window < 1 then
        invalid_arg "Runner: Sampled needs warmup >= 0 and window >= 1"

let create ?(benchmarks = Registry.all) ?max_insts ?cache_dir ?jobs
    ?(sim_mode = Exact) ?mem_budget () =
  validate_sim_mode sim_mode;
  let entries = Hashtbl.create 32 in
  List.iter
    (fun spec ->
      Hashtbl.replace entries spec.Spec.name
        { spec; lock = Mutex.create (); linked_v = None })
    benchmarks;
  let cache =
    Option.map (fun dir -> Disk_cache.create ~dir ~max_insts ()) cache_dir
  in
  {
    entries;
    order = List.map (fun s -> s.Spec.name) benchmarks;
    max_insts;
    cache;
    jobs;
    sim_mode;
    mem = Mem_cache.create ?budget:mem_budget ~name:"stages" ();
    timings = Hashtbl.create 8;
    timings_lock = Mutex.create ();
  }

let mem_stats t = Mem_cache.stats t.mem

(* Stage keys. The set / sampling-config / arch-key components are
   rendered to strings (the arch key via a digest of its marshalled
   form) so one string-keyed LRU covers every kind. *)

let set_str = Input_gen.set_to_string
let key_trace name set = Printf.sprintf "trace/%s/%s" name (set_str set)
let key_image name set = Printf.sprintf "image/%s/%s" name (set_str set)
let key_profile name set = Printf.sprintf "profile/%s/%s" name (set_str set)

let key_sampled name set sampling =
  Printf.sprintf "sprofile/%s/%s/%s" name (set_str set)
    (Dmp_sampling.Sampler.config_to_string sampling)

let key_baseline name set = Printf.sprintf "baseline/%s/%s" name (set_str set)

let key_select name set algo =
  Printf.sprintf "select/%s/%s/%s" name (set_str set) algo

let names t = t.order
let jobs t = t.jobs

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> invalid_arg ("Runner: unknown benchmark " ^ name)

let timed t stage f =
  let t0 = Unix.gettimeofday () in
  let finally () =
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.lock t.timings_lock;
    (match Hashtbl.find_opt t.timings stage with
    | Some tm ->
        tm.calls <- tm.calls + 1;
        tm.seconds <- tm.seconds +. dt
    | None -> Hashtbl.replace t.timings stage { calls = 1; seconds = dt });
    Mutex.unlock t.timings_lock
  in
  Fun.protect ~finally f

(* Bump a stage's call counter without attributing wall time — for
   accounting events (dedup hits) whose cost is the point: approximately
   zero. *)
let counted t stage n =
  if n > 0 then begin
    Mutex.lock t.timings_lock;
    (match Hashtbl.find_opt t.timings stage with
    | Some tm -> tm.calls <- tm.calls + n
    | None -> Hashtbl.replace t.timings stage { calls = n; seconds = 0. });
    Mutex.unlock t.timings_lock
  end

let with_lock e f =
  Mutex.lock e.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.lock) f

(* Caller must hold [e.lock]. *)
let linked_locked t e =
  match e.linked_v with
  | Some l -> l
  | None ->
      let l = timed t "link" (fun () -> Spec.linked e.spec) in
      e.linked_v <- Some l;
      l

let linked t name =
  let e = entry t name in
  with_lock e (fun () -> linked_locked t e)

let input t name set = (entry t name).spec.Spec.input set

(* Caller must hold [e.lock]. Captured with the runner's own
   [max_insts] cap, which also fingerprints the disk cache, so a
   persisted trace always covers exactly what the replaying stages
   consume. *)
let trace_locked t e set =
  let key = key_trace e.spec.Spec.name set in
  match Mem_cache.find t.mem key with
  | Some (VTrace tr) -> tr
  | Some _ | None ->
      let linked = linked_locked t e in
      let name = e.spec.Spec.name in
      let cached =
        match t.cache with
        | None -> None
        | Some c ->
            timed t "trace (disk cache)" (fun () ->
                Disk_cache.load_trace c ~bench:name ~set)
      in
      let tr =
        match cached with
        | Some tr -> tr
        | None ->
            let tr =
              timed t "trace (capture)" (fun () ->
                  Trace.capture ?max_insts:t.max_insts linked
                    ~input:(e.spec.Spec.input set))
            in
            Option.iter
              (fun c -> Disk_cache.store_trace c ~bench:name ~set tr)
              t.cache;
            tr
      in
      Mem_cache.add t.mem key ~size:(Trace.byte_size tr) (VTrace tr);
      tr

let trace t name set =
  let e = entry t name in
  with_lock e (fun () -> trace_locked t e set)

(* Process-global decoded-image memo, layered under the runner-wide
   LRU: distinct runners in one process (a --repeat sweep, tests, a
   daemon restarted in-process) re-capture traces per runner but the
   decoded image of a registry benchmark is a pure function of
   (benchmark, input set, instruction cap) — decode it at most once per
   process. Guarded to specs physically identical to the registry's, so
   a test runner carrying a custom program under a registry name can
   never be served another program's image. Values are held weakly:
   the memo never extends an image's lifetime, so a budgeted
   [Mem_cache] eviction still frees the Bigarrays once every runner
   drops them. *)
let global_images : (string, Image.t Weak.t) Hashtbl.t = Hashtbl.create 16
let global_images_lock = Mutex.create ()

let global_image_key name set max_insts =
  Printf.sprintf "%s/%s/%s" name (set_str set)
    (match max_insts with Some n -> string_of_int n | None -> "full")

let global_image_find key =
  Mutex.lock global_images_lock;
  let r =
    match Hashtbl.find_opt global_images key with
    | Some w -> Weak.get w 0
    | None -> None
  in
  Mutex.unlock global_images_lock;
  r

let global_image_publish key img =
  let w = Weak.create 1 in
  Weak.set w 0 (Some img);
  Mutex.lock global_images_lock;
  Hashtbl.replace global_images key w;
  Mutex.unlock global_images_lock

(* Caller must hold [e.lock]. The image is decoded in-memory from the
   (possibly disk-cached) packed trace and never persisted itself: the
   decode is one sequential pass, cheaper than reading the ~8x larger
   flat form back from disk. One image per (benchmark, input set) is
   shared — read-only — by every simulation of that pair, across
   domains (and amortised to zero by a long-lived serving process). *)
let image_locked t e set =
  let name = e.spec.Spec.name in
  let key = key_image name set in
  match Mem_cache.find t.mem key with
  | Some (VImage img) -> img
  | Some _ | None ->
      let gkey = global_image_key name set t.max_insts in
      let eligible =
        match Registry.find_opt name with
        | Some s -> s == e.spec
        | None -> false
      in
      let img =
        match (if eligible then global_image_find gkey else None) with
        | Some img -> img
        | None ->
            let tr = trace_locked t e set in
            let img =
              timed t "image (decode)" (fun () -> Image.of_trace tr)
            in
            if eligible then global_image_publish gkey img;
            img
      in
      Mem_cache.add t.mem key ~size:(Image.byte_size img) (VImage img);
      img

let image t name set =
  let e = entry t name in
  with_lock e (fun () -> image_locked t e set)

(* Caller must hold [e.lock]. *)
let profile_locked t e set =
  let name = e.spec.Spec.name in
  let key = key_profile name set in
  match Mem_cache.find t.mem key with
  | Some (VProfile p) -> p
  | Some _ | None ->
      let linked = linked_locked t e in
      let cached =
        match t.cache with
        | None -> None
        | Some c ->
            timed t "profile (disk cache)" (fun () ->
                Disk_cache.load_profile c linked ~bench:name ~set)
      in
      let p =
        match cached with
        | Some p -> p
        | None ->
            let tr = trace_locked t e set in
            let p =
              timed t "profile (collect)" (fun () ->
                  Profile.collect_trace ?max_insts:t.max_insts linked tr)
            in
            Option.iter
              (fun c -> Disk_cache.store_profile c ~bench:name ~set p)
              t.cache;
            p
      in
      Mem_cache.add t.mem key ~size:(Mem_cache.approx_size p) (VProfile p);
      p

let profile t name set =
  let e = entry t name in
  with_lock e (fun () -> profile_locked t e set)

(* Sampled profiles walk the same packed trace as the exact profiler,
   then reconstruct; the collect+reconstruct pair is memoized (and
   disk-cached) per (input set, sampling config), so sweeping many
   configurations reuses one trace per pair. *)
let sampled_profile t name set sampling =
  let e = entry t name in
  with_lock e (fun () ->
      let key = key_sampled name set sampling in
      match Mem_cache.find t.mem key with
      | Some (VProfile p) -> p
      | Some _ | None ->
          let linked = linked_locked t e in
          let cached =
            match t.cache with
            | None -> None
            | Some c ->
                timed t "sprofile (disk cache)" (fun () ->
                    Disk_cache.load_sampled_profile c linked ~bench:name ~set
                      ~sampling)
          in
          let p =
            match cached with
            | Some p -> p
            | None ->
                let tr = trace_locked t e set in
                let p =
                  timed t "sprofile (collect)" (fun () ->
                      let s =
                        Dmp_sampling.Sampler.collect_trace
                          ?max_insts:t.max_insts ~config:sampling linked tr
                      in
                      Dmp_sampling.Reconstruct.profile linked s)
                in
                Option.iter
                  (fun c ->
                    Disk_cache.store_sampled_profile c ~bench:name ~set
                      ~sampling p)
                  t.cache;
                p
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size p)
            (VProfile p);
          p)

let baseline ?(set = Input_gen.Reduced) t name =
  let e = entry t name in
  with_lock e (fun () ->
      let key = key_baseline name set in
      match Mem_cache.find t.mem key with
      | Some (VStats s) -> s
      | Some _ | None ->
          let linked = linked_locked t e in
          let cached =
            match t.cache with
            | None -> None
            | Some c ->
                timed t "baseline (disk cache)" (fun () ->
                    Disk_cache.load_baseline c ~bench:name ~set)
          in
          let s =
            match cached with
            | Some s -> s
            | None ->
                let img = image_locked t e set in
                let s =
                  timed t "baseline (simulate)" (fun () ->
                      Sim.run_image ~config:Config.baseline
                        ?max_insts:t.max_insts linked img)
                in
                Option.iter
                  (fun c -> Disk_cache.store_baseline c ~bench:name ~set s)
                  t.cache;
                s
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size s) (VStats s);
          s)

(* Compiler selection as a cached stage: the annotation a named
   selection algorithm derives from the (benchmark, input set) profile.
   The serving daemon's annotate / run requests hit this instead of
   re-running Alg_exact / Alg_freq / the cost model per request. *)
let selection t name set ~algo =
  let variant =
    match Variants.of_string algo with
    | Some v -> v
    | None -> invalid_arg ("Runner.selection: unknown algorithm " ^ algo)
  in
  let e = entry t name in
  with_lock e (fun () ->
      let key = key_select name set algo in
      match Mem_cache.find t.mem key with
      | Some (VAnn a) -> a
      | Some _ | None ->
          let linked = linked_locked t e in
          let p = profile_locked t e set in
          let a =
            timed t "select (run)" (fun () ->
                Variants.annotate variant linked p)
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size a) (VAnn a);
          a)

(* Configuration fields that shape the long-lived architectural state a
   checkpoint restores in sampled mode — predictor kind, confidence and
   cache geometry — plus the ROB size the resume validates against.
   Timing-only fields (widths, depths, latencies, the confidence
   threshold, the DMP episode limits) are normalised to the baseline so
   a sweep over them shares one set of reference checkpoints: the
   predictor / confidence / cache tables after k consumed events are a
   pure function of the consumed event prefix, which those fields do
   not alter. *)
let arch_key (c : Config.t) =
  {
    Config.baseline with
    Config.rob_size = c.Config.rob_size;
    predictor = c.Config.predictor;
    conf_log2_entries = c.Config.conf_log2_entries;
    conf_history_length = c.Config.conf_history_length;
    l1_log2_sets = c.Config.l1_log2_sets;
    l1_ways = c.Config.l1_ways;
    l2_log2_sets = c.Config.l2_log2_sets;
    l2_ways = c.Config.l2_ways;
    line_bytes = c.Config.line_bytes;
  }

let segment_interval img segments = max 1 (Image.length img / max 1 segments)

(* Reference checkpoints for the sampled mode: captured once per
   (input set, architectural key, segment count) by an annotation-free
   run under the normalised configuration, then shared — read-only —
   by every sampled simulation of that benchmark. Valid for any
   annotation and any same-key configuration because only the
   prefix-determined architectural sections are restored. *)
let key_refckpt name set config segments =
  Printf.sprintf "refckpt/%s/%s/%s/%d" name (set_str set)
    (Digest.to_hex (Digest.string (Marshal.to_string (arch_key config) [])))
    segments

let ref_checkpoints t e set config segments =
  with_lock e (fun () ->
      let key = key_refckpt e.spec.Spec.name set config segments in
      match Mem_cache.find t.mem key with
      | Some (VCkpts cks) -> cks
      | Some _ | None ->
          let linked = linked_locked t e in
          let img = image_locked t e set in
          let cks =
            timed t "ckpt (capture)" (fun () ->
                snd
                  (Sim.run_image_checkpointed ~config:(arch_key config)
                     ?max_insts:t.max_insts
                     ~interval:(segment_interval img segments) linked img))
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size cks)
            (VCkpts cks);
          cks)

(* Per-segment task lists. Exact segments carry (start, last?) for
   [Sim.run_image_segment]; sampled segments carry (start, length) for
   [Sim.run_image_sampled]. *)
let exact_segment_tasks ckpts =
  let rec go from = function
    | [] -> [ (from, true) ]
    | ck :: tl -> (from, false) :: go (Some ck) tl
  in
  go None ckpts

let sampled_segment_tasks total ckpts =
  let rec go from start = function
    | [] -> [ (from, total - start) ]
    | ck :: tl ->
        let c = Checkpoint.consumed ck in
        (from, c - start) :: go (Some ck) c tl
  in
  go None 0 ckpts

let merge_deltas deltas = List.fold_left Stats.merge (Stats.create ()) deltas

(* ---------- annotation dedup ----------

   A DMP simulation's statistics are a pure function of
   (trace, configuration, simulation mode, compiled annotation table).
   The trace is pinned by (benchmark, input set, max_insts) — all
   runner-wide constants or key components — so the memo key below
   identifies a simulation exactly, and each distinct key is simulated
   once; every other requester receives a copy of the memoized
   statistics. The fingerprint is behavioural
   ({!Dmp_core.Annotation.Compiled.fingerprint}): annotations differing
   only in selection metadata (merge probabilities, expected iteration
   counts) share one simulation. *)

let config_digest (c : Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string c []))

let mode_str = function
  | Exact -> "exact"
  | Segmented n -> Printf.sprintf "segmented:%d" n
  | Sampled { segments; warmup; window } ->
      Printf.sprintf "sampled:%d:%d:%d" segments warmup window

let compile_annotation linked ann =
  Dmp_core.Annotation.compile ~size:(Linked.size linked) ann

let annotation_fingerprint t name ann =
  Dmp_core.Annotation.Compiled.fingerprint
    (compile_annotation (linked t name) ann)

let key_dmpstats t name set config mode ann =
  Printf.sprintf "dmpstats/%s/%s/%s/%s/%s" name (set_str set)
    (config_digest config) (mode_str mode) (annotation_fingerprint t name ann)

(* The dedup memo, shared by [dmp_batch] and [dmp_memo]: a hit answers
   [requests] tasks, each counted as a dedup hit; stored and returned
   statistics are copies, so no caller can alias the memo. *)
let memo_find t key ~requests =
  match Mem_cache.find t.mem key with
  | Some (VStats s) ->
      counted t "dmp (dedup hit)" requests;
      Some s
  | Some _ | None -> None

let memo_add t key s =
  Mem_cache.add t.mem key ~size:(Mem_cache.approx_size s)
    (VStats (Stats.copy s))

(* ---------- software-predication (transformed-program) stages ----------

   The {!Dmp_transform.Pipeline} is a pure function of
   (program, profile counters, pass config), so its artifacts cache
   like every other stage. Each key — and the synthetic benchmark name
   the disk-cached artifacts persist under — embeds the pass-config
   fingerprint, so a config change can never alias another pipeline's
   trace, profile or statistics. The transformed program's own trace /
   image / profile stages mirror the original ones: captured once per
   (benchmark, input set, pass config) and replayed by every
   simulation. *)

module Pass_config = Dmp_transform.Pass_config

let key_transform name set tfp =
  Printf.sprintf "transform/%s/%s/%s" name (set_str set) tfp

let key_ttrace name set tfp =
  Printf.sprintf "ttrace/%s/%s/%s" name (set_str set) tfp

let key_timage name set tfp =
  Printf.sprintf "timage/%s/%s/%s" name (set_str set) tfp

let key_tprofile name set tfp =
  Printf.sprintf "tprofile/%s/%s/%s" name (set_str set) tfp

let key_tbaseline name set tfp =
  Printf.sprintf "tbaseline/%s/%s/%s" name (set_str set) tfp

(* The benchmark name transformed-program artifacts persist under in
   the disk cache: fingerprint-qualified so they can never collide
   with the original program's entries (or another pass config's). *)
let sw_bench name tfp = Printf.sprintf "%s+sw-%s" name tfp

(* Caller must hold [e.lock]. *)
let transform_locked t e set tconfig =
  let tfp = Pass_config.fingerprint tconfig in
  let key = key_transform e.spec.Spec.name set tfp in
  match Mem_cache.find t.mem key with
  | Some (VTransform r) -> r
  | Some _ | None ->
      let linked = linked_locked t e in
      let p = profile_locked t e set in
      let r =
        timed t "transform (run)" (fun () ->
            Dmp_transform.Pipeline.run ~config:tconfig linked p)
      in
      Mem_cache.add t.mem key ~size:(Mem_cache.approx_size r) (VTransform r);
      r

(* Caller must hold [e.lock]. Same capture / disk-cache discipline as
   [trace_locked], on the transformed program. *)
let ttrace_locked t e set tconfig =
  let name = e.spec.Spec.name in
  let tfp = Pass_config.fingerprint tconfig in
  let key = key_ttrace name set tfp in
  match Mem_cache.find t.mem key with
  | Some (VTrace tr) -> tr
  | Some _ | None ->
      let r = transform_locked t e set tconfig in
      let bench = sw_bench name tfp in
      let cached =
        match t.cache with
        | None -> None
        | Some c ->
            timed t "ttrace (disk cache)" (fun () ->
                Disk_cache.load_trace c ~bench ~set)
      in
      let tr =
        match cached with
        | Some tr -> tr
        | None ->
            let tr =
              timed t "ttrace (capture)" (fun () ->
                  Trace.capture ?max_insts:t.max_insts
                    r.Dmp_transform.Pipeline.linked
                    ~input:(e.spec.Spec.input set))
            in
            Option.iter
              (fun c -> Disk_cache.store_trace c ~bench ~set tr)
              t.cache;
            tr
      in
      Mem_cache.add t.mem key ~size:(Trace.byte_size tr) (VTrace tr);
      tr

(* Caller must hold [e.lock]. Decoded in-memory only, like the
   original image (no global memo: the key already pins the pass
   config, and transformed images are far rarer than registry ones). *)
let timage_locked t e set tconfig =
  let key = key_timage e.spec.Spec.name set (Pass_config.fingerprint tconfig) in
  match Mem_cache.find t.mem key with
  | Some (VImage img) -> img
  | Some _ | None ->
      let tr = ttrace_locked t e set tconfig in
      let img = timed t "image (decode)" (fun () -> Image.of_trace tr) in
      Mem_cache.add t.mem key ~size:(Image.byte_size img) (VImage img);
      img

(* Caller must hold [e.lock]. The transformed program's own edge
   profile — what a second profile-guided compilation (the combined
   software + DMP variant) selects from. *)
let tprofile_locked t e set tconfig =
  let name = e.spec.Spec.name in
  let tfp = Pass_config.fingerprint tconfig in
  let key = key_tprofile name set tfp in
  match Mem_cache.find t.mem key with
  | Some (VProfile p) -> p
  | Some _ | None ->
      let r = transform_locked t e set tconfig in
      let tlinked = r.Dmp_transform.Pipeline.linked in
      let bench = sw_bench name tfp in
      let cached =
        match t.cache with
        | None -> None
        | Some c ->
            timed t "tprofile (disk cache)" (fun () ->
                Disk_cache.load_profile c tlinked ~bench ~set)
      in
      let p =
        match cached with
        | Some p -> p
        | None ->
            let tr = ttrace_locked t e set tconfig in
            let p =
              timed t "tprofile (collect)" (fun () ->
                  Profile.collect_trace ?max_insts:t.max_insts tlinked tr)
            in
            Option.iter
              (fun c -> Disk_cache.store_profile c ~bench ~set p)
              t.cache;
            p
      in
      Mem_cache.add t.mem key ~size:(Mem_cache.approx_size p) (VProfile p);
      p

let transform ?(tconfig = Pass_config.default) t name set =
  let e = entry t name in
  with_lock e (fun () -> transform_locked t e set tconfig)

let transformed_profile ?(tconfig = Pass_config.default) t name set =
  let e = entry t name in
  with_lock e (fun () -> tprofile_locked t e set tconfig)

let transformed_baseline ?(tconfig = Pass_config.default)
    ?(set = Input_gen.Reduced) t name =
  let e = entry t name in
  with_lock e (fun () ->
      let tfp = Pass_config.fingerprint tconfig in
      let key = key_tbaseline name set tfp in
      match Mem_cache.find t.mem key with
      | Some (VStats s) -> s
      | Some _ | None ->
          let r = transform_locked t e set tconfig in
          let bench = sw_bench name tfp in
          let cached =
            match t.cache with
            | None -> None
            | Some c ->
                timed t "tbaseline (disk cache)" (fun () ->
                    Disk_cache.load_baseline c ~bench ~set)
          in
          let s =
            match cached with
            | Some s -> s
            | None ->
                let img = timage_locked t e set tconfig in
                let s =
                  timed t "tbaseline (simulate)" (fun () ->
                      Sim.run_image ~config:Config.baseline
                        ?max_insts:t.max_insts
                        r.Dmp_transform.Pipeline.linked img)
                in
                Option.iter
                  (fun c -> Disk_cache.store_baseline c ~bench ~set s)
                  t.cache;
                s
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size s) (VStats s);
          s)

(* One DMP simulation of the transformed program (the combined
   software + hardware variant). Memoized under the behavioural
   annotation fingerprint like [dmp_memo], with the pass-config
   fingerprint a key component. *)
let transformed_dmp ?(tconfig = Pass_config.default) ?(set = Input_gen.Reduced)
    ?(config = Config.dmp) t name annotation =
  let e = entry t name in
  with_lock e (fun () ->
      let r = transform_locked t e set tconfig in
      let tlinked = r.Dmp_transform.Pipeline.linked in
      let fp =
        Dmp_core.Annotation.Compiled.fingerprint
          (compile_annotation tlinked annotation)
      in
      let key =
        Printf.sprintf "tdmpstats/%s/%s/%s/%s/%s" name (set_str set)
          (Pass_config.fingerprint tconfig) (config_digest config) fp
      in
      match Mem_cache.find t.mem key with
      | Some (VStats s) ->
          counted t "dmp (dedup hit)" 1;
          Stats.copy s
      | Some _ | None ->
          let img = timage_locked t e set tconfig in
          let s =
            timed t "tdmp (simulate)" (fun () ->
                Sim.run_image ~config ~annotation ?max_insts:t.max_insts
                  tlinked img)
          in
          Mem_cache.add t.mem key ~size:(Mem_cache.approx_size s)
            (VStats (Stats.copy s));
          s)

(* How independent per-segment simulations are spread; polymorphic so
   one fanner serves both segment task shapes. *)
type fanner = { fan : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

(* One DMP simulation under the runner's (or an explicit) simulation
   mode. [fan] says how independent per-segment simulations are spread:
   the plain [dmp] entry point runs them inline; [dmp_batch] nests them
   onto its worker pool, where the re-entrant [Pool.map] lets the
   submitting worker help drain its own segments. *)
let dmp_with ~fan:{ fan } ?(set = Input_gen.Reduced) ?(config = Config.dmp) ?mode t
    name annotation =
  let mode = Option.value mode ~default:t.sim_mode in
  validate_sim_mode mode;
  let e = entry t name in
  let linked, img =
    with_lock e (fun () -> (linked_locked t e, image_locked t e set))
  in
  match mode with
  | Exact ->
      timed t "dmp (simulate)" (fun () ->
          Sim.run_image ~config ~annotation ?max_insts:t.max_insts linked img)
  | Segmented segments ->
      (* Validation mode: capture this very run's checkpoints, then
         re-simulate every segment independently and merge the deltas —
         byte-identical to the exact statistics by construction. *)
      let interval = segment_interval img segments in
      let ckpts =
        timed t "ckpt (capture)" (fun () ->
            snd
              (Sim.run_image_checkpointed ~config ~annotation
                 ?max_insts:t.max_insts ~interval linked img))
      in
      timed t "dmp (simulate)" (fun () ->
          merge_deltas
            (fan
               (fun (from, last) ->
                 Sim.run_image_segment ~config ~annotation
                   ?max_insts:t.max_insts ?from ~interval ~to_completion:last
                   linked img)
               (exact_segment_tasks ckpts)))
  | Sampled { segments; warmup; window } ->
      let ckpts = ref_checkpoints t e set config segments in
      timed t "dmp (simulate)" (fun () ->
          merge_deltas
            (fan
               (fun (from, length) ->
                 Sim.run_image_sampled ~config ~annotation
                   ?max_insts:t.max_insts ?from ~length ~warmup ~window linked
                   img)
               (sampled_segment_tasks (Image.length img) ckpts)))

let dmp ?set ?config ?mode t name annotation =
  dmp_with ~fan:{ fan = List.map } ?set ?config ?mode t name annotation

(* One distinct simulation of a batch: the representative task, its
   memo key and the task slots its statistics go to. *)
type group = {
  g_name : string;
  g_ann : Dmp_core.Annotation.t;
  g_key : string;
  mutable g_slots : int list;  (* reverse order *)
}

let dmp_batch ?(set = Input_gen.Reduced) ?(config = Config.dmp) ?mode t tasks =
  let mode = Option.value mode ~default:t.sim_mode in
  validate_sim_mode mode;
  (* Group the tasks by memo key, in first-occurrence order: each group
     is simulated at most once (not at all on a memo hit from an earlier
     batch), and its statistics go, as copies, to every slot that asked
     for them. *)
  let groups : (string, group) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iteri
    (fun i (name, ann) ->
      let key = key_dmpstats t name set config mode ann in
      match Hashtbl.find_opt groups key with
      | Some g -> g.g_slots <- i :: g.g_slots
      | None ->
          let g = { g_name = name; g_ann = ann; g_key = key; g_slots = [ i ] } in
          Hashtbl.replace groups key g;
          order := g :: !order)
    tasks;
  let results = Array.make (List.length tasks) None in
  let deliver g s =
    List.iter (fun i -> results.(i) <- Some (Stats.copy s)) g.g_slots
  in
  let pending =
    List.filter
      (fun g ->
        match memo_find t g.g_key ~requests:(List.length g.g_slots) with
        | Some s ->
            deliver g s;
            false
        | None -> true)
      (List.rev !order)
  in
  (* Each simulation is independent and deterministic, and [Pool.map]
     returns results in submission order, so the batch returns exactly
     what a sequential [List.map] over [dmp] would — with any [-j 1] /
     [-j N] difference invisible in the output. Shared inputs (linked
     program, trace, image) are memoized under the entry lock, so
     concurrent tasks of one benchmark derive them exactly once. Under a
     segment-splitting mode each task additionally fans its segments
     onto the same pool (a nested, re-entrant [Pool.map]), so even a
     single benchmark's simulation spreads across the workers. *)
  Pool.with_pool ?jobs:t.jobs (fun pool ->
      let fan = { fan = (fun f xs -> Pool.map pool ~f xs) } in
      let stats =
        Pool.map pool
          ~f:(fun g -> dmp_with ~fan ~set ~config ~mode t g.g_name g.g_ann)
          pending
      in
      List.iter2
        (fun g s ->
          memo_add t g.g_key s;
          deliver g s;
          counted t "dmp (dedup hit)" (List.length g.g_slots - 1))
        pending stats);
  Array.to_list (Array.map Option.get results)

(* Memoized single simulation: same dedup memo as {!dmp_batch}, for
   callers that arrive one request at a time (the serving daemon). *)
let dmp_memo ?(set = Input_gen.Reduced) ?(config = Config.dmp) ?mode t name
    annotation =
  let mode = Option.value mode ~default:t.sim_mode in
  validate_sim_mode mode;
  let key = key_dmpstats t name set config mode annotation in
  match memo_find t key ~requests:1 with
  | Some s -> Stats.copy s
  | None ->
      let s = dmp ~set ~config ~mode t name annotation in
      memo_add t key s;
      s

let prefetch ?(profile_sets = [ Input_gen.Reduced ])
    ?(baseline_sets = [ Input_gen.Reduced ]) ?jobs t =
  let jobs = match jobs with Some _ -> jobs | None -> t.jobs in
  (* One task per benchmark: stages of the same benchmark share its
     lock anyway, so finer tasks would only make workers queue on it. *)
  Pool.with_pool ?jobs (fun pool ->
      Pool.run pool
        (List.map
           (fun name () ->
             List.iter (fun set -> ignore (profile t name set)) profile_sets;
             List.iter
               (fun set -> ignore (baseline ~set t name))
               baseline_sets)
           t.order))

let speedup_pct ~base stats =
  (Stats.ipc stats /. Stats.ipc base -. 1.) *. 100.

let amean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let timings t =
  Mutex.lock t.timings_lock;
  let rows =
    Hashtbl.fold
      (fun stage tm acc -> (stage, tm.calls, tm.seconds) :: acc)
      t.timings []
  in
  Mutex.unlock t.timings_lock;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows

let timings_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b "[";
  List.iteri
    (fun i (stage, calls, seconds) ->
      if i > 0 then Buffer.add_string b ",";
      (* Stage labels are fixed ASCII strings without quotes or
         backslashes, so plain quoting is valid JSON. *)
      Buffer.add_string b
        (Printf.sprintf "\n  {\"stage\": %S, \"calls\": %d, \"seconds\": %.6f}"
           stage calls seconds))
    (timings t);
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let timing_summary t =
  let rows = timings t in
  let b = Buffer.create 256 in
  Buffer.add_string b "== Stage timings ==\n";
  Buffer.add_string b
    (Printf.sprintf "%-24s %8s %12s\n" "stage" "calls" "seconds");
  List.iter
    (fun (stage, calls, seconds) ->
      Buffer.add_string b
        (Printf.sprintf "%-24s %8d %12.3f\n" stage calls seconds))
    rows;
  Buffer.contents b
