(* Print the dmp_code_digest module: [value] is the MD5 over the sorted
   (path, file digest) pairs of the files named on the command line.
   Usage: gen.exe FILE... > dmp_code_digest.ml *)

let () =
  let files = List.sort String.compare (List.tl (Array.to_list Sys.argv)) in
  let pairs =
    List.map (fun f -> f ^ " " ^ Digest.to_hex (Digest.file f) ^ "\n") files
  in
  Printf.printf "let value = %S\n"
    (Digest.to_hex (Digest.string (String.concat "" pairs)))
