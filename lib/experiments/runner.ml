(* Shared experiment pipeline with caching of the expensive stages
   (linking, trace capture, profiling, compiler selection, baseline and
   DMP simulation) across figures. The architectural emulator runs once
   per (program, input set): its event stream is captured into a
   packed [Trace.t] under the per-benchmark lock; the trace is decoded
   once into a flat [Image.t] and every later baseline / dmp call
   replays the image. The exact and sampled profilers replay the
   packed trace through the same decoder ([Trace.replay]) as the image
   decode: a profile runs once per pair, and the packed form is about
   4.4x smaller than the image. A program is a benchmark as registered
   or its software-predicated form; both go through the same stages.

   Storage: every stage value lives in one runner-wide byte-budgeted
   [Mem_cache] (an LRU keyed by "kind/program/input-set[/params]"),
   layered over the optional persistent [Disk_cache]. With no budget
   (the offline default) nothing is ever evicted and the behaviour is
   the old unbounded memoisation; the serving daemon runs the same
   runner with a budget, so a long-lived process holds the hottest
   traces / images / profiles / selections in memory and transparently
   recomputes (or reloads from disk) anything evicted.

   Concurrency: every entry owns a lock that guards its one-shot
   linking and its stage computations, so a stage is computed exactly
   once no matter how many domains ask for it (while cached), and
   distinct benchmarks proceed in parallel. Selections and DMP
   simulations are keyed batches instead: they take the lock only to
   fetch their inputs, and dedup by key within a batch. The runner-wide
   state (stage timings, the mem cache) has its own locking and is
   never held across a stage computation. *)

open Dmp_ir
open Dmp_exec
open Dmp_profile
open Dmp_uarch
open Dmp_workload
module Pass_config = Dmp_transform.Pass_config

type sim_mode =
  | Exact
  | Segmented of int
  | Sampled of { segments : int; warmup : int; window : int }

type program = Original | Transformed of Pass_config.t

type profile_source =
  | Exact_profile
  | Sampled_profile of Dmp_sampling.Sampler.config
  | Transformed_profile of Pass_config.t

type selector =
  | Compiler of Dmp_core.Select.config
  | Simple of Dmp_core.Simple_select.algo

type request = {
  bench : string;
  set : Input_gen.set;
  source : profile_source;
  selector : selector;
  two_d : int option;
}

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
let set_str = Input_gen.set_to_string
let names t = t.order
let jobs t = t.jobs

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> invalid_arg ("Runner: unknown benchmark " ^ name)

let record t stage ~calls seconds =
  Mutex.lock t.timings_lock;
  (match Hashtbl.find_opt t.timings stage with
  | Some tm ->
      tm.calls <- tm.calls + calls;
      tm.seconds <- tm.seconds +. seconds
  | None -> Hashtbl.replace t.timings stage { calls; seconds });
  Mutex.unlock t.timings_lock

let timed t stage f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      record t stage ~calls:1 (Unix.gettimeofday () -. t0))
    f

(* Bump a stage's call counter without attributing wall time — for
   accounting events (dedup hits) whose cost is the point: approximately
   zero. *)
let counted t stage n = if n > 0 then record t stage ~calls:n 0.

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

(* The name a program's stage values are keyed and persisted under. A
   transformed program's embeds the pass-config fingerprint, so its
   entries can never collide with the original program's (or another
   pass config's). *)
let filed name = function
  | Original -> name
  | Transformed c -> Printf.sprintf "%s+sw-%s" name (Pass_config.fingerprint c)

(* ---------- the generic stage ----------

   Every stage value kind is described once: the subject its
   accounting rows are named after, its slot in the stage LRU, its byte
   size, what each requester receives (statistics are copied so no
   caller can alias the memo; every other value is shared, read-only)
   and, for the kinds that persist, its disk codec. Each stage's
   compute closure times itself, after fetching its inputs through
   their own stages, so no row contains another. *)

type 'v codec = {
  load :
    Disk_cache.t -> bench:string -> set:Input_gen.set -> key:string ->
    'v option;
  store :
    Disk_cache.t -> bench:string -> set:Input_gen.set -> key:string -> 'v ->
    unit;
}

type 'v kind = {
  subject : string;
  inject : 'v -> value;
  project : value -> 'v option;
  size : 'v -> int;
  copy : 'v -> 'v;
  disk : 'v codec option;
}

let kind ?(size = Mem_cache.approx_size) ?(copy = Fun.id) ?disk subject inject
    project =
  { subject; inject; project; size; copy; disk }

(* A codec for entries named by (benchmark, input set) alone. *)
let unkeyed load store =
  Some
    {
      load = (fun c ~bench ~set ~key:_ -> load c ~bench ~set);
      store = (fun c ~bench ~set ~key:_ v -> store c ~bench ~set v);
    }

let trace_kind =
  kind "trace" ~size:Trace.byte_size
    ?disk:(unkeyed Disk_cache.load_trace Disk_cache.store_trace)
    (fun v -> VTrace v)
    (function VTrace v -> Some v | _ -> None)

(* The decoded image is never persisted: the decode is one sequential
   pass, cheaper than reading the flat form, about 4.4x larger than the
   packed trace, back from disk. *)
let image_kind =
  kind "image" ~size:Image.byte_size
    (fun v -> VImage v)
    (function VImage v -> Some v | _ -> None)

let project_profile = function VProfile v -> Some v | _ -> None

(* Profiles persist as raw counters, rebuilt against the program they
   were collected on. *)
let profile_kind linked =
  kind "profile"
    ?disk:
      (unkeyed
         (fun c -> Disk_cache.load_profile c linked)
         Disk_cache.store_profile)
    (fun v -> VProfile v) project_profile

let sprofile_kind linked sampling =
  kind "sprofile"
    ?disk:
      (unkeyed
         (fun c -> Disk_cache.load_sampled_profile c linked ~sampling)
         (fun c -> Disk_cache.store_sampled_profile c ~sampling))
    (fun v -> VProfile v) project_profile

let project_stats = function VStats v -> Some v | _ -> None

let baseline_kind =
  kind "baseline"
    ?disk:(unkeyed Disk_cache.load_baseline Disk_cache.store_baseline)
    (fun v -> VStats v) project_stats

let dmp_kind =
  kind "dmp" ~copy:Stats.copy
    ~disk:{ load = Disk_cache.load_stats; store = Disk_cache.store_stats }
    (fun v -> VStats v) project_stats

let ckpt_kind =
  kind "ckpt" (fun v -> VCkpts v) (function VCkpts v -> Some v | _ -> None)

let transform_kind =
  kind "transform"
    (fun v -> VTransform v)
    (function VTransform v -> Some v | _ -> None)

let selection_kind =
  kind "select"
    ~disk:
      { load = Disk_cache.load_selection; store = Disk_cache.store_selection }
    (fun v -> VAnn v)
    (function VAnn v -> Some v | _ -> None)

(* The memo, then the disk cache: [Some (v, from_disk)]. A disk hit
   enters the memo and is timed under the kind's "(disk cache)" row, so
   that row counts hits only. *)
let find t kind ~bench ~set key =
  match Option.bind (Mem_cache.find t.mem key) kind.project with
  | Some v -> Some (v, false)
  | None -> (
      match (t.cache, kind.disk) with
      | Some c, Some d -> (
          let t0 = Unix.gettimeofday () in
          match d.load c ~bench ~set ~key with
          | Some v ->
              record t (kind.subject ^ " (disk cache)") ~calls:1
                (Unix.gettimeofday () -. t0);
              Mem_cache.add t.mem key ~size:(kind.size v) (kind.inject v);
              Some (v, true)
          | None -> None)
      | _ -> None)

(* Publish a computed value to the memo and the disk cache. *)
let publish t kind ~bench ~set key v =
  Mem_cache.add t.mem key ~size:(kind.size v) (kind.inject v);
  match (t.cache, kind.disk) with
  | Some c, Some d -> d.store c ~bench ~set ~key v
  | _ -> ()

(* One stage of [program] on [set], for the entry [e]; caller must hold
   [e.lock]. The key is the kind's subject, the program's filed name,
   the input set and [extra]; the value comes from the memo, the disk
   cache or [compute], whose result is published. *)
let stage t kind e program set ?(extra = "") compute =
  let bench = filed e.spec.Spec.name program in
  let key = Printf.sprintf "%s/%s/%s%s" kind.subject bench (set_str set) extra in
  kind.copy
    (match find t kind ~bench ~set key with
    | Some (v, _) -> v
    | None ->
        let v = compute () in
        publish t kind ~bench ~set key v;
        v)

(* ---------- per-program stages ----------

   Callers must hold [e.lock]. A transformed program's linked form is
   the output of the {!Dmp_transform.Pipeline}, a pure function of
   (program, profile counters, pass config) and so a stage like every
   other: the one stage only a transformed program has. Traces are
   captured with the runner's own [max_insts] cap, which also
   fingerprints the disk cache, so a persisted trace always covers
   exactly what the replaying stages consume. *)

let rec program_linked t e program set =
  match program with
  | Original -> linked_locked t e
  | Transformed c ->
      (transform_locked t e set c).Dmp_transform.Pipeline.linked

and transform_locked t e set c =
  stage t transform_kind e (Transformed c) set (fun () ->
      let linked = linked_locked t e in
      let p = profile_locked t e Original set in
      timed t "transform (run)" (fun () ->
          Dmp_transform.Pipeline.run ~config:c linked p))

and trace_locked t e program set =
  stage t trace_kind e program set (fun () ->
      let linked = program_linked t e program set in
      timed t "trace (capture)" (fun () ->
          Trace.capture ?max_insts:t.max_insts linked
            ~input:(e.spec.Spec.input set)))

and profile_locked t e program set =
  let linked = program_linked t e program set in
  stage t (profile_kind linked) e program set (fun () ->
      let tr = trace_locked t e program set in
      timed t "profile (collect)" (fun () ->
          Profile.collect_trace ?max_insts:t.max_insts linked tr))

(* Process-global decoded-image memo, layered under the runner-wide
   LRU: distinct runners in one process (tests, a daemon restarted
   in-process) re-capture traces per runner but the decoded image of a
   registry benchmark, original or transformed, is a pure function of
   (program, input set, instruction cap) — decode it at most once per
   process. Guarded to specs physically identical to the registry's, so
   a test runner carrying a custom program under a registry name can
   never be served another program's image. Values are held weakly:
   the memo never extends an image's lifetime, so a budgeted
   [Mem_cache] eviction still frees the Bigarrays once every runner
   drops them. *)
let global_images : (string, Image.t Weak.t) Hashtbl.t = Hashtbl.create 16
let global_images_lock = Mutex.create ()

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

(* One image per (program, input set) is shared — read-only — by every
   simulation of that pair, across domains (and amortised to zero by a
   long-lived serving process). *)
let image_locked t e program set =
  stage t image_kind e program set (fun () ->
      let name = e.spec.Spec.name in
      let gkey =
        Printf.sprintf "%s/%s/%s" (filed name program) (set_str set)
          (match t.max_insts with Some n -> string_of_int n | None -> "full")
      in
      let eligible =
        match Registry.find_opt name with
        | Some s -> s == e.spec
        | None -> false
      in
      match if eligible then global_image_find gkey else None with
      | Some img -> img
      | None ->
          let tr = trace_locked t e program set in
          let img = timed t "image (decode)" (fun () -> Image.of_trace tr) in
          if eligible then global_image_publish gkey img;
          img)

let trace t name set =
  let e = entry t name in
  with_lock e (fun () -> trace_locked t e Original set)

let image t name set =
  let e = entry t name in
  with_lock e (fun () -> image_locked t e Original set)

let profile ?(program = Original) t name set =
  let e = entry t name in
  with_lock e (fun () -> profile_locked t e program set)

let transform ?(tconfig = Pass_config.default) t name set =
  let e = entry t name in
  with_lock e (fun () -> transform_locked t e set tconfig)

(* Sampled profiles walk the same packed trace as the exact profiler,
   then reconstruct; the collect+reconstruct pair is memoized (and
   disk-cached) per (input set, sampling config), so sweeping many
   configurations reuses one trace per pair. *)
let sampled_profile t name set sampling =
  let e = entry t name in
  with_lock e (fun () ->
      let linked = linked_locked t e in
      stage t (sprofile_kind linked sampling) e Original set
        ~extra:("/" ^ Dmp_sampling.Sampler.config_to_string sampling)
        (fun () ->
          let tr = trace_locked t e Original set in
          timed t "sprofile (collect)" (fun () ->
              let s =
                Dmp_sampling.Sampler.collect_trace ?max_insts:t.max_insts
                  ~config:sampling linked tr
              in
              Dmp_sampling.Reconstruct.profile linked s)))

let baseline ?(program = Original) ?(set = Input_gen.Reduced) t name =
  let e = entry t name in
  with_lock e (fun () ->
      stage t baseline_kind e program set (fun () ->
          let linked = program_linked t e program set in
          let img = image_locked t e program set in
          timed t "baseline (simulate)" (fun () ->
              Sim.run_image ~config:Config.baseline ?max_insts:t.max_insts
                linked img)))

let config_digest (c : Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string c []))

(* Configuration fields that shape the long-lived architectural state a
   checkpoint restores in sampled mode — confidence and cache geometry —
   plus the ROB size the resume validates against.
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
   (program, input set, architectural key, segment count) by an
   annotation-free run under the normalised configuration, then shared
   — read-only — by every sampled simulation of that program. Valid for
   any annotation and any same-key configuration because only the
   prefix-determined architectural sections are restored. *)
let ref_checkpoints t e program set config segments =
  with_lock e (fun () ->
      stage t ckpt_kind e program set
        ~extra:(Printf.sprintf "/%s/%d" (config_digest (arch_key config)) segments)
        (fun () ->
          let linked = program_linked t e program set in
          let img = image_locked t e program set in
          timed t "ckpt (capture)" (fun () ->
              snd
                (Sim.run_image_checkpointed ~config:(arch_key config)
                   ?max_insts:t.max_insts
                   ~interval:(segment_interval img segments) linked img))))

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

(* ---------- keyed batches ---------- *)

(* One distinct computation of a batch: the representative task, its
   memo key and the task slots its value goes to. *)
type 'a group = {
  g_task : 'a;
  g_key : string;
  mutable g_slots : int list;  (* reverse order *)
}

(* A keyed batch: group [tasks] by memo key, in first-occurrence order;
   answer every group the memo or the disk cache holds; compute the
   rest with [run publish pending], which returns one value per pending
   group, in order, each passed through [publish] by the domain that
   computed it (so disk writes overlap the other computations); and
   deliver a copy of each group's value to every slot that asked for
   it. Each group the memo did not hold adds one computation or
   disk-cache call and each other slot one dedup hit, so the rows grow
   by exactly the number of tasks. [where] names the (benchmark, input
   set) a task's entry is filed under. *)
let keyed_batch t kind ~key ~where ~run tasks =
  let groups : (string, _ group) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iteri
    (fun i task ->
      let k = key task in
      match Hashtbl.find_opt groups k with
      | Some g -> g.g_slots <- i :: g.g_slots
      | None ->
          let g = { g_task = task; g_key = k; g_slots = [ i ] } in
          Hashtbl.replace groups k g;
          order := g :: !order)
    tasks;
  let results = Array.make (List.length tasks) None in
  let deliver g v =
    List.iter (fun i -> results.(i) <- Some (kind.copy v)) g.g_slots
  in
  let dedup_hits n = counted t (kind.subject ^ " (dedup hit)") n in
  let pending =
    List.filter
      (fun g ->
        let bench, set = where g.g_task in
        match find t kind ~bench ~set g.g_key with
        | Some (v, from_disk) ->
            deliver g v;
            dedup_hits (List.length g.g_slots - Bool.to_int from_disk);
            false
        | None -> true)
      (List.rev !order)
  in
  let publish g v =
    let bench, set = where g.g_task in
    publish t kind ~bench ~set g.g_key v;
    v
  in
  (match pending with
  | [] -> ()
  | _ ->
      List.iter2
        (fun g v ->
          deliver g v;
          dedup_hits (List.length g.g_slots - 1))
        pending (run publish pending));
  Array.to_list (Array.map Option.get results)

(* ---------- compiler selection ----------

   A selection is a pure function of the program and profile it reads
   (named by the benchmark, the input set and the profile source), the
   selector and the optional 2D-profile pre-filter; the code running it
   is pinned by the disk cache's fingerprint. So the key below names a
   selection exactly, equal selections requested by different figures
   share one memo entry and one disk entry, and a warm cache answers
   every one of them without reading a profile. *)

let request ?(set = Input_gen.Reduced) ?(source = Exact_profile) ?two_d bench
    selector =
  (match (selector, two_d) with
  | Simple _, Some _ ->
      invalid_arg "Runner.request: the 2D pre-filter needs a Compiler selector"
  | (Compiler _ | Simple _), _ -> ());
  { bench; set; source; selector; two_d }

let variant = function
  | Variants.Simple algo -> Simple algo
  | (Variants.Heur _ | Variants.Cost _) as v -> Compiler (Variants.to_config v)

let source_str = function
  | Exact_profile -> "exact"
  | Sampled_profile s -> "sampled:" ^ Dmp_sampling.Sampler.config_to_string s
  | Transformed_profile c -> "sw:" ^ Pass_config.fingerprint c

(* The selector in full — the selection config with every [Params]
   field, or the simple algorithm with its seed or threshold — digested
   from its unshared marshalled form, so structurally equal selectors
   share a key however they were built. *)
let key_selection r =
  Printf.sprintf "select/%s/%s/%s/%s/%s" r.bench (set_str r.set)
    (source_str r.source)
    (Digest.to_hex
       (Digest.string (Marshal.to_string r.selector [ Marshal.No_sharing ])))
    (match r.two_d with None -> "-" | Some n -> "2d:" ^ string_of_int n)

(* Each input is fetched through its own stage, under the benchmark
   lock; the selection itself runs outside it. *)
let run_selection t r =
  let linked, profile =
    match r.source with
    | Exact_profile -> (linked t r.bench, profile t r.bench r.set)
    | Sampled_profile s -> (linked t r.bench, sampled_profile t r.bench r.set s)
    | Transformed_profile tconfig ->
        ( (transform ~tconfig t r.bench r.set).Dmp_transform.Pipeline.linked,
          profile ~program:(Transformed tconfig) t r.bench r.set )
  in
  let two_d =
    Option.map
      (fun max_insts ->
        timed t "2d-profile (collect)" (fun () ->
            Two_d.collect ~max_insts linked ~input:(input t r.bench r.set)))
      r.two_d
  in
  timed t "select (run)" (fun () ->
      match r.selector with
      | Compiler config -> Dmp_core.Select.run ~config ?two_d linked profile
      | Simple algo -> Dmp_core.Simple_select.run algo linked profile)

(* A lone pending selection runs inline: spawning the pool's domains
   costs more than it could save. *)
let selections t requests =
  List.iter (fun r -> ignore (entry t r.bench)) requests;
  keyed_batch t selection_kind ~key:key_selection
    ~where:(fun r -> (r.bench, r.set))
    ~run:(fun publish pending ->
      let f g = publish g (run_selection t g.g_task) in
      match pending with
      | [ g ] -> [ f g ]
      | _ -> Pool.with_pool ?jobs:t.jobs (fun pool -> Pool.map pool ~f pending))
    requests

let selection t name set ~algo =
  match Variants.of_string algo with
  | None -> invalid_arg ("Runner.selection: unknown algorithm " ^ algo)
  | Some v -> (
      match selections t [ request ~set name (variant v) ] with
      | [ a ] -> a
      | _ -> assert false)

(* ---------- DMP simulation ----------

   A DMP simulation's statistics are a pure function of
   (program, input set, configuration, simulation mode, compiled
   annotation table); the instruction cap is a runner-wide constant. So
   the memo key below identifies a simulation exactly, and each
   distinct key is simulated once; every other requester receives a
   copy of the memoized statistics. The fingerprint is behavioural
   ({!Dmp_core.Annotation.Compiled.fingerprint}), of the annotation
   compiled against the simulated program: annotations differing only
   in selection metadata (merge probabilities, expected iteration
   counts) share one simulation. The code that simulates is pinned by
   the disk cache's fingerprint, so the same key also names the
   simulation's persisted statistics. *)

let mode_str = function
  | Exact -> "exact"
  | Segmented n -> Printf.sprintf "segmented:%d" n
  | Sampled { segments; warmup; window } ->
      Printf.sprintf "sampled:%d:%d:%d" segments warmup window

let fingerprint linked ann =
  Dmp_core.Annotation.Compiled.fingerprint
    (Dmp_core.Annotation.compile ~size:(Linked.size linked) ann)

let annotation_fingerprint t name ann = fingerprint (linked t name) ann

let key_dmpstats t name program set config mode ann =
  let e = entry t name in
  let linked = with_lock e (fun () -> program_linked t e program set) in
  Printf.sprintf "dmp/%s/%s/%s/%s/%s" (filed name program) (set_str set)
    (config_digest config) (mode_str mode) (fingerprint linked ann)

(* How independent per-segment simulations are spread; polymorphic so
   one fanner serves both segment task shapes. *)
type fanner = { fan : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let resolve_mode t mode =
  let mode = Option.value mode ~default:t.sim_mode in
  validate_sim_mode mode;
  mode

(* One DMP simulation under a resolved simulation mode. [fan] says how
   independent per-segment simulations are spread: inline, or nested
   onto a batch's worker pool, where the re-entrant [Pool.map] lets the
   submitting worker help drain its own segments. *)
let dmp_with ~fan:{ fan } ~program ~set ~config ~mode t name annotation =
  let e = entry t name in
  let linked, img =
    with_lock e (fun () ->
        (program_linked t e program set, image_locked t e program set))
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
      let ckpts = ref_checkpoints t e program set config segments in
      timed t "dmp (simulate)" (fun () ->
          merge_deltas
            (fan
               (fun (from, length) ->
                 Sim.run_image_sampled ~config ~annotation
                   ?max_insts:t.max_insts ?from ~length ~warmup ~window linked
                   img)
               (sampled_segment_tasks (Image.length img) ckpts)))

let dmp ?(program = Original) ?(set = Input_gen.Reduced) ?(config = Config.dmp)
    ?mode t name annotation =
  dmp_with ~fan:{ fan = List.map } ~program ~set ~config
    ~mode:(resolve_mode t mode) t name annotation

(* Each simulation is independent and deterministic, and [Pool.map]
   returns results in submission order, so a batch returns exactly what
   a sequential [List.map] over [dmp] would — with any [-j 1] / [-j N]
   difference invisible in the output. Shared inputs (linked program,
   trace, image) are memoized under the entry lock, so concurrent tasks
   of one benchmark derive them exactly once. Under a segment-splitting
   mode each task additionally fans its segments onto the same pool (a
   nested, re-entrant [Pool.map]), so even a single benchmark's
   simulation spreads across the workers. [inline] runs everything on
   the calling domain instead. *)
let dmp_keyed ~inline ?(program = Original) ?(set = Input_gen.Reduced)
    ?(config = Config.dmp) ?mode t tasks =
  let mode = resolve_mode t mode in
  keyed_batch t dmp_kind
    ~key:(fun (name, ann) -> key_dmpstats t name program set config mode ann)
    ~where:(fun (name, _) -> (filed name program, set))
    ~run:(fun publish pending ->
      let sim fan g =
        let name, ann = g.g_task in
        publish g (dmp_with ~fan ~program ~set ~config ~mode t name ann)
      in
      if inline then List.map (sim { fan = List.map }) pending
      else
        Pool.with_pool ?jobs:t.jobs (fun pool ->
            Pool.map pool
              ~f:(sim { fan = (fun f xs -> Pool.map pool ~f xs) })
              pending))
    tasks

let dmp_batch ?program ?set ?config ?mode t tasks =
  dmp_keyed ~inline:false ?program ?set ?config ?mode t tasks

let dmp_memo ?program ?set ?config ?mode t name annotation =
  match
    dmp_keyed ~inline:true ?program ?set ?config ?mode t [ (name, annotation) ]
  with
  | [ s ] -> s
  | _ -> assert false

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
