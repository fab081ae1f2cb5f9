module Prng = Lockdoc_util.Prng

exception Crash of string

let () =
  Printexc.register_printer (function
    | Crash site -> Some (Printf.sprintf "Crashpoint.Crash(%S)" site)
    | _ -> None)

type state = { mutable countdown : int option; mutable hits : int }

let state = { countdown = None; hits = 0 }

let reset () =
  state.countdown <- None;
  state.hits <- 0

let arm ~after =
  if after <= 0 then invalid_arg "Crashpoint.arm: after must be positive";
  state.countdown <- Some after;
  state.hits <- 0

let armed () = state.countdown <> None
let hits () = state.hits

let hit ?partial site =
  state.hits <- state.hits + 1;
  match state.countdown with
  | None -> ()
  | Some n when state.hits < n -> ()
  | Some _ ->
      state.countdown <- None;
      (match partial with Some f -> f () | None -> ());
      raise (Crash site)

(* ---- Seeded post-crash corruption of the WAL tail ----------------- *)
(* Operates on raw segment files by name so this module stays below
   [Wal] in the dependency order. *)

let wal_segments dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f = 18
           && String.sub f 0 4 = "wal-"
           && Filename.check_suffix f ".seg")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

let file_size path =
  match In_channel.with_open_bin path In_channel.length with
  | n -> Int64.to_int n
  | exception Sys_error _ -> 0

let last_nonempty_segment dir =
  List.fold_left
    (fun acc path ->
      match file_size path with 0 -> acc | n -> Some (path, n))
    None (wal_segments dir)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let truncate_tail ~dir prng =
  match last_nonempty_segment dir with
  | None -> None
  | Some (path, size) ->
      let cut = 1 + Prng.int prng (min size 64) in
      let keep = size - cut in
      let content = read_file path in
      write_file path (String.sub content 0 keep);
      Some (Printf.sprintf "truncated %d bytes off %s" cut (Filename.basename path))

let flip_bit ~dir prng =
  match last_nonempty_segment dir with
  | None -> None
  | Some (path, size) ->
      (* Flip in the last half so the damage lands near the tail. *)
      let lo = size / 2 in
      let pos = lo + Prng.int prng (size - lo) in
      let bit = Prng.int prng 8 in
      let content = Bytes.of_string (read_file path) in
      Bytes.set content pos
        (Char.chr (Char.code (Bytes.get content pos) lxor (1 lsl bit)));
      write_file path (Bytes.to_string content);
      Some
        (Printf.sprintf "flipped bit %d at offset %d of %s" bit pos
           (Filename.basename path))

let torn_append ~dir prng =
  match last_nonempty_segment dir with
  | None -> None
  | Some (path, _) ->
      (* A record header promising more payload than follows: a torn
         final append. *)
      let promised = 32 + Prng.int prng 200 in
      let got = Prng.int prng 8 in
      let b = Buffer.create 16 in
      Buffer.add_string b
        (Lockdoc_util.Frame.header ~len:promised
           ~crc:(Prng.int prng 0x3fffffff));
      for _ = 1 to got do
        Buffer.add_char b (Char.chr (Prng.int prng 256))
      done;
      let content = read_file path in
      write_file path (content ^ Buffer.contents b);
      Some
        (Printf.sprintf "torn append (%d of %d payload bytes) to %s" got
           promised (Filename.basename path))

let corrupt_tail ~dir ~seed =
  let prng = Prng.of_int seed in
  match Prng.int prng 3 with
  | 0 -> truncate_tail ~dir prng
  | 1 -> flip_bit ~dir prng
  | _ -> torn_append ~dir prng
