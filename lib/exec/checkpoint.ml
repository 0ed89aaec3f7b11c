(* Compact serializable machine-state snapshot.

   A checkpoint is the consumed-event count plus named sections of flat
   int arrays; the simulator (which this library cannot see) packs its
   architectural, predictor and cache state into sections and unpacks
   them on resume. Keeping the container generic means the wire format
   lives in one place while each subsystem owns its own layout.

   The byte form is versioned and checksummed: a fixed magic, the
   consumed count, then each section as (name, length, values), every
   integer as 8 little-endian bytes, followed by the MD5 digest of
   everything before it. [of_bytes] rejects truncated, corrupt or
   foreign buffers instead of decoding garbage. *)

type t = { consumed : int; sections : (string * int array) list }

let magic = "DMPCKPT1"

let create ~consumed sections =
  if consumed < 0 then invalid_arg "Checkpoint.create: negative consumed";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      if String.length name = 0 || String.length name > 255 then
        invalid_arg "Checkpoint.create: section name length";
      if Hashtbl.mem seen name then
        invalid_arg ("Checkpoint.create: duplicate section " ^ name);
      Hashtbl.replace seen name ())
    sections;
  { consumed; sections }

let consumed t = t.consumed
let sections t = t.sections

let section_opt t name = List.assoc_opt name t.sections

let section t name =
  match section_opt t name with
  | Some a -> a
  | None -> invalid_arg ("Checkpoint.section: no section " ^ name)

let byte_size t =
  List.fold_left
    (fun acc (name, a) -> acc + 1 + String.length name + 8 + (8 * Array.length a))
    (String.length magic + 8 + 8 + 16)
    t.sections

let add_int64 b (v : int) =
  let v = Int64.of_int v in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let to_bytes t =
  let b = Buffer.create (byte_size t) in
  Buffer.add_string b magic;
  add_int64 b t.consumed;
  add_int64 b (List.length t.sections);
  List.iter
    (fun (name, a) ->
      Buffer.add_char b (Char.chr (String.length name));
      Buffer.add_string b name;
      add_int64 b (Array.length a);
      Array.iter (add_int64 b) a)
    t.sections;
  let payload = Buffer.contents b in
  Buffer.add_string b (Digest.string payload);
  Buffer.to_bytes b

let of_bytes buf =
  let len = Bytes.length buf in
  let pos = ref 0 in
  let fail msg = raise (Failure msg) in
  let need n = if !pos + n > len then fail "truncated" in
  let read_string n =
    need n;
    let s = Bytes.sub_string buf !pos n in
    pos := !pos + n;
    s
  in
  let read_int64 () =
    need 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get buf (!pos + i))))
    done;
    pos := !pos + 8;
    Int64.to_int !v
  in
  try
    if len < String.length magic + 16 then fail "truncated";
    let digest = Bytes.sub_string buf (len - 16) 16 in
    if Digest.subbytes buf 0 (len - 16) <> digest then fail "bad checksum";
    if read_string (String.length magic) <> magic then fail "bad magic";
    let consumed = read_int64 () in
    let nsections = read_int64 () in
    if nsections < 0 || nsections > 1024 then fail "bad section count";
    let sections =
      List.init nsections (fun _ ->
          need 1;
          let nlen = Char.code (Bytes.get buf !pos) in
          incr pos;
          let name = read_string nlen in
          let alen = read_int64 () in
          if alen < 0 || !pos + (8 * alen) > len - 16 then
            fail "bad section length";
          (name, Array.init alen (fun _ -> read_int64 ())))
    in
    if !pos <> len - 16 then fail "trailing bytes";
    Ok (create ~consumed sections)
  with
  | Failure msg -> Error ("Checkpoint.of_bytes: " ^ msg)
  | Invalid_argument msg -> Error ("Checkpoint.of_bytes: " ^ msg)
