(* Content-addressed on-disk store.

   Each entry is one file under root/<k0k1>/<key>.wcache (two-level sharding
   keeps directories small). The file holds a one-line envelope

     WCSTORE1 <kind> <version> <md5(payload)> <length>\n

   followed by the raw payload bytes, so corruption (truncation, bit rot,
   a crashed writer) is always detectable on read. Writes go through a
   temporary file in the same directory followed by [Sys.rename], which is
   atomic on POSIX: concurrent domains and processes either see the old
   entry or the new one, never a partial file. Every filesystem failure
   degrades (to [Miss], [Corrupt] or [Error]) — the store never raises. *)

type t = { root : string }

type read_outcome =
  | Hit of { kind : string; version : string; payload : string }
  | Miss
  | Corrupt of string

type stats = { entries : int; bytes : int; by_kind : (string * int) list }

type verify_report = {
  checked : int;
  valid : int;
  corrupt : string list;  (** keys of entries with a bad envelope or checksum *)
  mismatched : string list;  (** keys whose version differs from [expect_version] *)
}

let magic = "WCSTORE1"
let suffix = ".wcache"

(* Envelope fields are space-separated on one line; keep them one token. *)
let sanitize s =
  String.map (fun c -> if c = ' ' || c = '\n' || c = '\r' || c = '\t' then '_' else c) s

(* Keys become file names (and their first two characters a shard
   directory), so the alphabet is restricted and the key must be long
   enough — and start alphanumeric — that no key can name ".", ".." or an
   empty shard. Callers use content hashes, which always qualify. *)
let valid_key key =
  let alnum c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  String.length key >= 4
  && alnum key.[0]
  && String.for_all (fun c -> alnum c || c = '-' || c = '_' || c = '.') key

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      (* A concurrent creator winning the race is fine. *)
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir;
  (try Sys.is_directory dir with Sys_error _ -> false)

let open_store root =
  if mkdir_p root then Ok { root }
  else Error (Printf.sprintf "cannot create store directory %s" root)

let root t = t.root
let shard t key = Filename.concat t.root (String.sub key 0 (min 2 (String.length key)))
let entry_path t key = Filename.concat (shard t key) (key ^ suffix)

let mem t ~key = valid_key key && Sys.file_exists (entry_path t key)

let read_file path =
  try
    In_channel.with_open_bin path (fun ic ->
        match input_line ic with
        | exception End_of_file -> Corrupt "empty entry"
        | header -> (
          match String.split_on_char ' ' header with
          | [ m; kind; version; digest; len_s ] when m = magic -> (
            match int_of_string_opt len_s with
            | Some len when len >= 0 -> (
              match really_input_string ic len with
              | exception End_of_file -> Corrupt "truncated payload"
              | payload ->
                if In_channel.input_char ic <> None then Corrupt "trailing bytes"
                else if Digest.to_hex (Digest.string payload) <> digest then
                  Corrupt "checksum mismatch"
                else Hit { kind; version; payload })
            | Some _ | None -> Corrupt "bad length field")
          | _ -> Corrupt "bad envelope"))
  with Sys_error e -> Corrupt e

let read t ~key =
  if not (valid_key key) then Miss
  else
    let path = entry_path t key in
    if not (Sys.file_exists path) then Miss else read_file path

let write t ~key ~kind ~version payload =
  if not (valid_key key) then Error (Printf.sprintf "invalid store key %S" key)
  else
    try
      let dir = shard t key in
      if not (mkdir_p dir) then Error (Printf.sprintf "cannot create store directory %s" dir)
      else begin
        let header =
          Printf.sprintf "%s %s %s %s %d\n" magic (sanitize kind) (sanitize version)
            (Digest.to_hex (Digest.string payload))
            (String.length payload)
        in
        let tmp, oc = Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir ".tmp-" ".part" in
        let ok =
          try
            output_string oc header;
            output_string oc payload;
            close_out oc;
            Sys.rename tmp (entry_path t key);
            true
          with Sys_error _ ->
            close_out_noerr oc;
            (try Sys.remove tmp with Sys_error _ -> ());
            false
        in
        if ok then Ok (String.length header + String.length payload)
        else Error "store write failed"
      end
    with Sys_error e -> Error e

let remove t ~key =
  valid_key key
  &&
  let path = entry_path t key in
  try
    Sys.remove path;
    true
  with Sys_error _ -> false

let sorted_readdir dir =
  try
    let a = Sys.readdir dir in
    Array.sort compare a;
    a
  with Sys_error _ -> [||]

(* Fold over entry files; leftover [.tmp-*] files from crashed writers are
   not entries and are skipped (clear removes them). *)
let fold t f acc =
  Array.fold_left
    (fun acc sub ->
      let subdir = Filename.concat t.root sub in
      if (try Sys.is_directory subdir with Sys_error _ -> false) then
        Array.fold_left
          (fun acc file ->
            if Filename.check_suffix file suffix then
              f acc ~key:(Filename.chop_suffix file suffix) ~path:(Filename.concat subdir file)
            else acc)
          acc (sorted_readdir subdir)
      else acc)
    acc (sorted_readdir t.root)

let file_size path = try In_channel.with_open_bin path In_channel.length with Sys_error _ -> 0L

(* Entry kind without paying for the payload: header line only. *)
let kind_of path =
  try
    In_channel.with_open_bin path (fun ic ->
        match String.split_on_char ' ' (input_line ic) with
        | [ m; kind; _; _; _ ] when m = magic -> kind
        | _ -> "?")
  with Sys_error _ | End_of_file -> "?"

let stats t =
  let entries, bytes, kinds =
    fold t
      (fun (n, b, kinds) ~key:_ ~path ->
        let kind = kind_of path in
        let count = match List.assoc_opt kind kinds with Some c -> c | None -> 0 in
        ( n + 1,
          b + Int64.to_int (file_size path),
          (kind, count + 1) :: List.remove_assoc kind kinds ))
      (0, 0, [])
  in
  { entries; bytes; by_kind = List.sort compare kinds }

let verify ?expect_version t =
  let checked, valid, corrupt, mismatched =
    fold t
      (fun (n, v, bad, mis) ~key ~path ->
        match read_file path with
        | Hit { version; _ } -> (
          match expect_version with
          | Some expected when version <> expected -> (n + 1, v, bad, key :: mis)
          | Some _ | None -> (n + 1, v + 1, bad, mis))
        | Miss | Corrupt _ -> (n + 1, v, key :: bad, mis))
      (0, 0, [], [])
  in
  { checked; valid; corrupt = List.rev corrupt; mismatched = List.rev mismatched }

let clear t =
  let removed = fold t (fun n ~key:_ ~path -> try Sys.remove path; n + 1 with Sys_error _ -> n) 0 in
  (* Sweep crashed writers' temp files too. *)
  Array.iter
    (fun sub ->
      let subdir = Filename.concat t.root sub in
      if (try Sys.is_directory subdir with Sys_error _ -> false) then
        Array.iter
          (fun file ->
            if String.length file >= 5 && String.sub file 0 5 = ".tmp-" then
              try Sys.remove (Filename.concat subdir file) with Sys_error _ -> ())
          (sorted_readdir subdir))
    (sorted_readdir t.root);
  removed
