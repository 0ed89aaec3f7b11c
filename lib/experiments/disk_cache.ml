(* Persistent stage cache. Each entry is one file:

     magic | Digest(payload) | payload

   with the payload a [Marshal]-serialised [Profile.raw], [Stats.t],
   [Annotation.t] or packed [Trace.t] (Bigarray buffers marshal their
   raw contents).
   Writes go through a temporary file in the same directory followed by
   a rename, so a crashed or concurrent writer can never leave a
   half-written entry under the final name; corruption that happens
   anyway (truncation, editing, format drift) fails the digest check
   and reads as a miss. *)

open Dmp_exec
open Dmp_profile
open Dmp_uarch
open Dmp_workload

(* [total] is this handle's running count of the payload bytes under
   the root (see [enforce_cap]); it is only kept under a cap. *)
type t = {
  root : string;
  dir : string;
  max_bytes : int option;
  total : int Atomic.t;
}

let magic = "DMPCACHE1\n"

(* DMP_CACHE_BYTES caps the whole cache root (all fingerprint
   subdirectories — the unbounded growth happens *across* sweeps with
   different fingerprints). Same operator contract as DMP_JOBS: a
   value that does not parse as a positive integer is an error, not a
   hint; unset or blank means unlimited. *)
let env_max_bytes () =
  match Sys.getenv_opt "DMP_CACHE_BYTES" with
  | None -> Ok None
  | Some s when String.trim s = "" -> Ok None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Ok (Some n)
      | Some _ | None ->
          Error
            (Printf.sprintf "DMP_CACHE_BYTES must be a positive integer, got %S"
               s))

(* Everything a cached value depends on besides its entry key: the
   code that computed it (a build-time digest of the sources of every
   library the runner is built from, so the parameter and machine
   constants defined there too), the compiler that marshalled it and
   the instruction cap. *)
let fingerprint ~max_insts =
  let key = (Dmp_code_digest.value, Sys.ocaml_version, max_insts) in
  Digest.to_hex (Digest.string (Marshal.to_string key []))

let mkdir_if_absent d =
  match Sys.mkdir d 0o755 with
  | () -> ()
  | exception Sys_error _ when Sys.file_exists d && Sys.is_directory d -> ()

(* ---------- access-time bookkeeping and LRU eviction ----------

   Each entry carries a sidecar [<entry>.atime] file holding a
   wall-clock timestamp plus a process-local sequence number (the
   tiebreak for stores landing in the same microsecond). The sidecar is
   rewritten on every successful load and every store, so its content
   orders entries by last use across processes; an entry without a
   sidecar (pre-existing caches) falls back to its mtime. Eviction
   walks every fingerprint subdirectory under the root, sums the entry
   payload sizes, and removes oldest-access entries (and their
   sidecars) until the total fits the cap again. All filesystem races
   (a concurrent evictor or writer) are tolerated: a vanished file is
   simply skipped, and a load of an evicted entry is an ordinary
   miss. *)

let atime_suffix = ".atime"
let atime_seq = Atomic.make 0

let is_tmp name =
  (* store's temporaries: <entry>.tmp.<pid>.<domain> *)
  let rec has_tmp i =
    match String.index_from_opt name i '.' with
    | None -> false
    | Some j ->
        String.length name - j > 4 && String.sub name j 5 = ".tmp."
        || has_tmp (j + 1)
  in
  has_tmp 0

let touch_atime file =
  let stamp =
    Printf.sprintf "%.6f %d\n" (Unix.gettimeofday ())
      (Atomic.fetch_and_add atime_seq 1)
  in
  try
    let oc = open_out (file ^ atime_suffix) in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc stamp)
  with Sys_error _ -> ()

let read_atime file =
  let sidecar = file ^ atime_suffix in
  let from_sidecar () =
    let ic = open_in sidecar in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Scanf.bscanf (Scanf.Scanning.from_string (input_line ic)) "%f %d"
          (fun t seq -> (t, seq)))
  in
  match from_sidecar () with
  | stamp -> Some stamp
  | exception (Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _)
    -> (
      match Unix.stat file with
      | { Unix.st_mtime; _ } -> Some (st_mtime, 0)
      | exception Unix.Unix_error _ -> None)

(* Every payload entry under the root, with its size in bytes. *)
let cache_entries root =
  let subdirs =
    match Sys.readdir root with
    | names ->
        Array.to_list names
        |> List.map (Filename.concat root)
        |> List.filter (fun d ->
               try Sys.is_directory d with Sys_error _ -> false)
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun d ->
      match Sys.readdir d with
      | names ->
          Array.to_list names
          |> List.filter (fun n ->
                 (not (Filename.check_suffix n atime_suffix))
                 && not (is_tmp n))
          |> List.filter_map (fun n ->
                 let file = Filename.concat d n in
                 match Unix.stat file with
                 | { Unix.st_size; _ } -> Some (file, st_size)
                 | exception Unix.Unix_error _ -> None)
      | exception Sys_error _ -> [])
    subdirs

let payload_bytes entries = List.fold_left (fun a (_, s) -> a + s) 0 entries

let remove_entry file =
  (try Sys.remove file with Sys_error _ -> ());
  try Sys.remove (file ^ atime_suffix) with Sys_error _ -> ()

(* The root is scanned once, when a capped handle is created; each
   store then adds its entry's bytes to the running total, and only a
   store that takes the total over the cap rescans the root, evicts
   (the sidecars are read, and the entries ordered by last use, only
   then) and resets the total to what is left. Bytes written by other
   handles or processes are seen at that rescan. A re-stored entry
   counts twice until then, which only makes the rescan come early. *)
let enforce_cap t ~added =
  match t.max_bytes with
  | None -> ()
  | Some cap ->
      if Atomic.fetch_and_add t.total added + added > cap then begin
        let entries = cache_entries t.root in
        let excess = ref (payload_bytes entries - cap) in
        if !excess > 0 then
          List.filter_map
            (fun (file, size) ->
              Option.map (fun atime -> (file, size, atime)) (read_atime file))
            entries
          |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
          |> List.iter (fun (file, size, _) ->
                 if !excess > 0 then begin
                   remove_entry file;
                   excess := !excess - size
                 end);
        Atomic.set t.total (cap + !excess)
      end

let create ?(dir = "_cache") ?max_bytes ~max_insts () =
  let max_bytes =
    match max_bytes with
    | Some _ as b -> b
    | None -> (
        match env_max_bytes () with
        | Ok b -> b
        | Error msg -> invalid_arg ("Disk_cache.create: " ^ msg))
  in
  mkdir_if_absent dir;
  let sub = Filename.concat dir (fingerprint ~max_insts) in
  mkdir_if_absent sub;
  let total =
    match max_bytes with None -> 0 | Some _ -> payload_bytes (cache_entries dir)
  in
  { root = dir; dir = sub; max_bytes; total = Atomic.make total }

let dir t = t.dir

let path t ~bench ~set ~kind =
  Filename.concat t.dir
    (Printf.sprintf "%s-%s.%s" bench (Input_gen.set_to_string set) kind)

let store t ~bench ~set ~kind value =
  let payload = Marshal.to_string value [] in
  let final = path t ~bench ~set ~kind in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      Digest.output oc (Digest.string payload);
      output_string oc payload);
  Sys.rename tmp final;
  touch_atime final;
  enforce_cap t
    ~added:(String.length magic + 16 + String.length payload)

(* Any failure — missing file, bad magic, bad digest, Marshal noise —
   is a miss; a recognisably corrupt entry is also deleted so it cannot
   shadow the recomputed value if the later store fails too. *)
let load t ~bench ~set ~kind =
  let file = path t ~bench ~set ~kind in
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic -> (
      let r =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              let m = really_input_string ic (String.length magic) in
              if m <> magic then None
              else
                let d = Digest.input ic in
                let len =
                  in_channel_length ic - String.length magic - 16
                in
                if len < 0 then None
                else
                  let payload = really_input_string ic len in
                  if Digest.string payload <> d then None
                  else Some (Marshal.from_string payload 0)
            with
            | End_of_file | Failure _ | Sys_error _ | Invalid_argument _ ->
              None)
      in
      (match r with
      | None -> remove_entry file
      | Some _ -> touch_atime file);
      r)

let load_profile t linked ~bench ~set =
  Option.map (Profile.of_raw linked) (load t ~bench ~set ~kind:"profile")

let store_profile t ~bench ~set profile =
  store t ~bench ~set ~kind:"profile" (Profile.to_raw profile)

(* Sampled/reconstructed profiles: mode, period and seed are folded
   into the entry kind (and so the filename), so entries for different
   sampling parameters can never shadow each other or the exact
   profile. *)
let sampled_kind sampling =
  "sprofile-" ^ Dmp_sampling.Sampler.config_to_string sampling

let load_sampled_profile t linked ~bench ~set ~sampling =
  Option.map (Profile.of_raw linked)
    (load t ~bench ~set ~kind:(sampled_kind sampling))

let store_sampled_profile t ~bench ~set ~sampling profile =
  store t ~bench ~set ~kind:(sampled_kind sampling) (Profile.to_raw profile)

let load_baseline t ~bench ~set : Stats.t option =
  load t ~bench ~set ~kind:"baseline"

let store_baseline t ~bench ~set (stats : Stats.t) =
  store t ~bench ~set ~kind:"baseline" stats

let load_trace t ~bench ~set : Trace.t option =
  load t ~bench ~set ~kind:"trace"

let store_trace t ~bench ~set (trace : Trace.t) =
  store t ~bench ~set ~kind:"trace" trace

(* Keyed entries, one per memo key: the key is long and full of
   separators, so the entry kind holds its digest. *)
let keyed_kind prefix key = prefix ^ "-" ^ Digest.to_hex (Digest.string key)

let load_stats t ~bench ~set ~key : Stats.t option =
  load t ~bench ~set ~kind:(keyed_kind "dmp" key)

let store_stats t ~bench ~set ~key (stats : Stats.t) =
  store t ~bench ~set ~kind:(keyed_kind "dmp" key) stats

let load_selection t ~bench ~set ~key : Dmp_core.Annotation.t option =
  load t ~bench ~set ~kind:(keyed_kind "sel" key)

let store_selection t ~bench ~set ~key (ann : Dmp_core.Annotation.t) =
  store t ~bench ~set ~kind:(keyed_kind "sel" key) ann
