(* Unit and property tests for the utility kit: PRNG, statistics, growable
   vectors, table rendering and the CRC frame codec. *)

module Prng = Lockdoc_util.Prng
module Stats = Lockdoc_util.Stats
module Vec = Lockdoc_util.Vec
module Tablefmt = Lockdoc_util.Tablefmt
module Fnv = Lockdoc_util.Fnv
module Numarg = Lockdoc_util.Numarg
module Frame = Lockdoc_util.Frame

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* {2 Prng} *)

let test_prng_deterministic () =
  let a = Prng.of_int 1234 and b = Prng.of_int 1234 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_prng_copy () =
  let a = Prng.of_int 99 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.of_int 7 in
  let b = Prng.split a in
  (* The split stream must not equal the parent's continuation. *)
  let pa = Prng.next_int64 a and pb = Prng.next_int64 b in
  check Alcotest.bool "split differs from parent" true (pa <> pb)

let test_prng_weighted () =
  let rng = Prng.of_int 3 in
  for _ = 1 to 200 do
    let x = Prng.weighted rng [ (1, `A); (0, `B) ] in
    check Alcotest.bool "zero-weight choice never picked" true (x = `A)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.of_int 5 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 20 Fun.id) sorted

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.of_int seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.of_int seed in
      let hi = lo + span in
      let x = Prng.int_in rng lo hi in
      x >= lo && x <= hi)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float stays within bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 100.))
    (fun (seed, bound) ->
      let rng = Prng.of_int seed in
      let x = Prng.float rng bound in
      x >= 0. && x < bound)

(* {2 Stats} *)

let test_mean () =
  check (Alcotest.float 1e-9) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check (Alcotest.float 1e-9) "mean of empty" 0. (Stats.mean [])

let test_percentage () =
  check (Alcotest.float 1e-9) "50%" 50. (Stats.percentage 1 2);
  check (Alcotest.float 1e-9) "whole zero" 0. (Stats.percentage 5 0)

let test_percentile () =
  let xs = [ 5.; 1.; 3.; 2.; 4. ] in
  check (Alcotest.float 1e-9) "median" 3. (Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "max" 5. (Stats.percentile 1.0 xs);
  check (Alcotest.float 1e-9) "min-ish" 1. (Stats.percentile 0.0 xs)

let test_counter () =
  let c = Stats.counter () in
  Stats.incr c "a";
  Stats.incr c "a";
  Stats.add c "b" 3;
  check Alcotest.int "count a" 2 (Stats.count c "a");
  check Alcotest.int "count b" 3 (Stats.count c "b");
  check Alcotest.int "count missing" 0 (Stats.count c "zz");
  check Alcotest.int "total" 5 (Stats.total c);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "alist sorted" [ ("a", 2); ("b", 3) ] (Stats.to_alist c)

(* {2 Vec} *)

let test_vec_basic () =
  let v = Vec.create () in
  check Alcotest.int "empty length" 0 (Vec.length v);
  let i0 = Vec.push v "x" in
  let i1 = Vec.push v "y" in
  check Alcotest.int "index 0" 0 i0;
  check Alcotest.int "index 1" 1 i1;
  check Alcotest.string "get" "y" (Vec.get v 1);
  Vec.set v 0 "z";
  check Alcotest.string "set" "z" (Vec.get v 0);
  check (Alcotest.list Alcotest.string) "to_list" [ "z"; "y" ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "negative index" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "index past end" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  check Alcotest.int "length" 1000 (Vec.length v);
  check Alcotest.int "fold" (999 * 1000 / 2) (Vec.fold ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 500) v);
  check (Alcotest.option Alcotest.int) "find_opt" (Some 77)
    (Vec.find_opt (fun x -> x = 77) v)

(* {2 Pool} *)

module Pool = Lockdoc_util.Pool

exception Boom of int

let test_pool_empty_and_singleton () =
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "empty input, %d jobs" jobs)
        []
        (Pool.map ~jobs (fun x -> x * 2) []);
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "singleton input, %d jobs" jobs)
        [ 14 ]
        (Pool.map ~jobs (fun x -> x * 2) [ 7 ]))
    [ 1; 4; 64 ]

let test_pool_more_jobs_than_items () =
  check (Alcotest.list Alcotest.int) "3 items on 64 domains" [ 0; 2; 4 ]
    (Pool.map ~jobs:64 (fun x -> x * 2) [ 0; 1; 2 ])

let test_pool_exception_payload () =
  (* The exception a worker raises must surface unwrapped, payload
     intact, re-raised with the captured backtrace. *)
  match Pool.map ~jobs:4 (fun x -> if x >= 90 then raise (Boom x) else x)
          (List.init 100 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom p -> check Alcotest.int "payload intact" 90 p

let test_pool_exception_lowest_index () =
  (* Several workers fail: the surfaced exception is the one the
     sequential map would have raised first, regardless of scheduling. *)
  for _ = 1 to 20 do
    match Pool.map ~jobs:8 (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
            (List.init 200 Fun.id)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom p -> check Alcotest.int "lowest failing index" 3 p
  done

let test_pool_variants () =
  let items = List.init 50 Fun.id in
  check (Alcotest.list Alcotest.int) "mapi"
    (List.mapi (fun i x -> i + (x * 3)) items)
    (Pool.mapi ~jobs:4 (fun i x -> i + (x * 3)) items);
  check (Alcotest.list Alcotest.int) "concat_map"
    (List.concat_map (fun x -> [ x; -x ]) items)
    (Pool.concat_map ~jobs:4 (fun x -> [ x; -x ]) items);
  check (Alcotest.array Alcotest.int) "map_array"
    (Array.init 50 (fun i -> i * i))
    (Pool.map_array ~jobs:4 (fun x -> x * x) (Array.of_list items));
  check (Alcotest.array Alcotest.int) "init"
    (Array.init 50 (fun i -> i + 1))
    (Pool.init ~jobs:4 50 (fun i -> i + 1))

let prop_pool_order_preserved =
  QCheck.Test.make ~name:"Pool.map preserves input order for any job count"
    ~count:100
    QCheck.(pair (list small_int) (int_range 1 9))
    (fun (items, jobs) ->
      Pool.map ~jobs (fun x -> x * x) items = List.map (fun x -> x * x) items)

let prop_pool_matches_sequential =
  QCheck.Test.make
    ~name:"Pool.map equals List.map for a stateless allocating worker"
    ~count:50
    QCheck.(pair (list (pair small_int small_int)) (int_range 2 8))
    (fun (items, jobs) ->
      let f (a, b) = List.init (a mod 5) (fun i -> i + b) in
      Pool.map ~jobs f items = List.map f items)

(* Items slow enough that the calling domain stops working alone and
   spawns the other workers: results stay in order, the lowest failing
   index still wins, and another domain really runs items — the
   caller's first item past index 200 waits (up to 5 s) until one has. *)
let test_pool_spawns_for_slow_items () =
  let spin s =
    let t = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t < s do
      Domain.cpu_relax ()
    done
  in
  let caller = Domain.self () in
  let other_ran = Atomic.make false and waited = Atomic.make false in
  let f x =
    if Domain.self () <> caller then Atomic.set other_ran true
    else if x >= 200 && not (Atomic.exchange waited true) then begin
      let t = Unix.gettimeofday () in
      while (not (Atomic.get other_ran)) && Unix.gettimeofday () -. t < 5. do
        Domain.cpu_relax ()
      done
    end;
    spin 50e-6;
    x
  in
  let items = List.init 400 Fun.id in
  check (Alcotest.list Alcotest.int) "in order" items (Pool.map ~jobs:4 f items);
  check Alcotest.bool "another domain ran items" true (Atomic.get other_ran);
  match
    Pool.map ~jobs:4 (fun x -> if x >= 300 && x mod 7 = 3 then raise (Boom x) else f x) items
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom p -> check Alcotest.int "lowest failing index" 304 p

let test_pool_job_result () =
  let j = Pool.spawn (fun () -> List.init 100 Fun.id |> List.fold_left ( + ) 0) in
  (* Poll until done — a Some from poll must agree with await, and a
     job that has already completed awaits immediately. *)
  let rec wait n =
    match Pool.poll j with
    | Some r -> r
    | None ->
        if n = 0 then Alcotest.fail "job never completed";
        Unix.sleepf 0.005;
        wait (n - 1)
  in
  (match wait 2000 with
  | Ok v -> check Alcotest.int "poll sees the result" 4950 v
  | Error e -> Alcotest.failf "job failed: %s" (Printexc.to_string e));
  match Pool.await j with
  | Ok v -> check Alcotest.int "await agrees" 4950 v
  | Error e -> Alcotest.failf "await failed: %s" (Printexc.to_string e)

let test_pool_job_exception () =
  let j = Pool.spawn (fun () -> raise (Boom 17)) in
  (match Pool.await j with
  | Error (Boom p) -> check Alcotest.int "payload intact" 17 p
  | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "expected Error");
  (* The domain is reaped: a second await is a caller bug. *)
  match Pool.await j with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double await must raise Invalid_argument"

let test_pool_jobs_concurrent () =
  (* Several detached jobs run at once and each returns its own answer
     regardless of completion order. *)
  let js = List.init 6 (fun i -> (i, Pool.spawn (fun () -> i * i))) in
  List.iter
    (fun (i, j) ->
      match Pool.await j with
      | Ok v -> check Alcotest.int (Printf.sprintf "job %d" i) (i * i) v
      | Error e -> Alcotest.failf "job %d failed: %s" i (Printexc.to_string e))
    js

(* {2 Fnv} *)

(* Canonical FNV-1a 32-bit vectors, plus the filesystem names whose
   hash feeds [s_magic] in the kernel simulator. Pinning the latter
   pins the trace bytes across OCaml versions — the whole reason
   Hashtbl.hash was evicted from vfs_super.ml. *)
let test_fnv_vectors () =
  check Alcotest.int "empty = offset basis" 0x811C9DC5 (Fnv.fnv1a32 "");
  check Alcotest.int "a" 0xE40C292C (Fnv.fnv1a32 "a");
  check Alcotest.int "foobar" 0xBF9CF968 (Fnv.fnv1a32 "foobar")

let test_fnv_fs_magics () =
  List.iter
    (fun (name, magic) ->
      check Alcotest.int ("s_magic " ^ name) magic
        (Fnv.fnv1a32 name land 0xffff))
    [
      ("ext4", 0x5BC0); ("tmpfs", 0xC0D1); ("proc", 0x2FE1);
      ("pipefs", 0x309A); ("bdev", 0xC85C); ("sysfs", 0x7E19);
      ("devtmpfs", 0x4766); ("sockfs", 0x49CE); ("debugfs", 0x5C0B);
      ("anon_inodefs", 0xF6DC);
    ]

let test_fnv_32bit_range () =
  List.iter
    (fun s ->
      let h = Fnv.fnv1a32 s in
      check Alcotest.bool ("in range: " ^ s) true (h >= 0 && h <= 0xFFFFFFFF))
    [ ""; "a"; "\xff\xff\xff\xff"; String.make 100 'z' ]

(* {2 Numarg} *)

let test_numarg_int () =
  check Alcotest.bool "plain" true (Numarg.int_arg "42" = Ok 42);
  check Alcotest.bool "negative" true (Numarg.int_arg "-7" = Ok (-7));
  check Alcotest.bool "trimmed" true (Numarg.int_arg " 8 " = Ok 8);
  check Alcotest.bool "junk rejected" true
    (Result.is_error (Numarg.int_arg "x"));
  check Alcotest.bool "empty rejected" true
    (Result.is_error (Numarg.int_arg ""));
  check Alcotest.bool "trailing junk rejected" true
    (Result.is_error (Numarg.int_arg "12abc"))

let test_numarg_positive () =
  check Alcotest.bool "accepts 1" true (Numarg.positive "1" = Ok 1);
  (match Numarg.positive "0" with
  | Error msg ->
      check Alcotest.bool "one-line diagnostic" true
        (not (String.contains msg '\n'))
  | Ok _ -> Alcotest.fail "0 accepted");
  check Alcotest.bool "rejects negatives" true
    (Result.is_error (Numarg.positive "-3"))

let test_numarg_non_negative () =
  check Alcotest.bool "accepts 0" true (Numarg.non_negative "0" = Ok 0);
  check Alcotest.bool "rejects -1" true
    (Result.is_error (Numarg.non_negative "-1"))

let test_numarg_fraction () =
  check Alcotest.bool "0.9" true (Numarg.fraction "0.9" = Ok 0.9);
  check Alcotest.bool "bounds" true
    (Numarg.fraction "0" = Ok 0. && Numarg.fraction "1" = Ok 1.);
  check Alcotest.bool "rejects 1.5" true
    (Result.is_error (Numarg.fraction "1.5"));
  check Alcotest.bool "rejects -0.1" true
    (Result.is_error (Numarg.fraction "-0.1"));
  check Alcotest.bool "rejects junk" true
    (Result.is_error (Numarg.fraction "nan"))

(* {2 Tablefmt} *)

let test_table_render () =
  let t = Tablefmt.create ~header:[ "a"; "bb" ] in
  Tablefmt.add_row t [ "x"; "y" ];
  Tablefmt.add_row t [ "longer"; "z" ];
  let rendered = Tablefmt.render t in
  let lines = String.split_on_char '\n' rendered in
  check Alcotest.int "line count" 6 (List.length lines);
  (* All lines are the same width. *)
  let widths = List.map String.length lines in
  check Alcotest.bool "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_align () =
  let t = Tablefmt.create ~header:[ "n" ] in
  Tablefmt.set_align t [ Tablefmt.Right ];
  Tablefmt.add_row t [ "7" ];
  Tablefmt.add_row t [ "1234" ];
  let rendered = Tablefmt.render t in
  check Alcotest.bool "right aligned" true (contains rendered "|    7 |")

let test_table_width_mismatch () =
  let t = Tablefmt.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Tablefmt.add_row: width mismatch")
    (fun () -> Tablefmt.add_row t [ "only one" ])

(* {2 Frame} *)

let test_frame_crc32 () =
  check Alcotest.int "IEEE check vector" 0xCBF43926 (Frame.crc32 "123456789");
  check Alcotest.int "empty" 0 (Frame.crc32 "");
  (* crc32 "a" has bit 31 set: on 64-bit OCaml it exceeds Int32.max_int,
     so the [Int32.of_int] in the frame header truncates it to a
     negative int32. The reader must mask it back ([land 0xFFFFFFFF]);
     these vectors pin both halves of that contract. *)
  check Alcotest.int "top-bit vector" 0xE8B7BE43 (Frame.crc32 "a");
  check Alcotest.int "top-bit clear vector" 0x352441C2 (Frame.crc32 "abc")

let test_frame_header () =
  List.iter
    (fun (len, crc) ->
      let h = Frame.header ~len ~crc in
      check Alcotest.int "8 bytes" Frame.header_bytes (String.length h);
      check
        (Alcotest.pair Alcotest.int Alcotest.int)
        (Printf.sprintf "len %d crc %x" len crc)
        (len, crc)
        (Frame.parse_header ("xx" ^ h) 2))
    [ (0, 0); (1, Frame.crc32 "a"); (-1, 0xFFFFFFFF); (Frame.max_len, 1) ];
  let f = Frame.encode "abc" in
  check Alcotest.string "encode = header ^ payload"
    (Frame.header ~len:3 ~crc:(Frame.crc32 "abc") ^ "abc")
    f

(* Drain until [Awaiting] or a fatal damage; a bad checksum is recorded
   and decoding goes on. Every outcome but the last consumes a header,
   which bounds the loop even for a decoder that stops making progress. *)
let drain_frames d =
  let rec go fuel acc =
    match Frame.next d with
    | Frame.Awaiting -> List.rev acc
    | Frame.Damaged (Frame.Bad_length _) as n -> List.rev (n :: acc)
    | n when fuel = 0 -> List.rev (n :: acc)
    | n -> go (fuel - 1) (n :: acc)
  in
  go (Frame.buffered d / Frame.header_bytes) []

let test_frame_damage_policy () =
  let good = Frame.encode "good" in
  let bad = Bytes.of_string (Frame.encode "bad!") in
  Bytes.set bad (Frame.header_bytes + 1) 'X';
  let d = Frame.decoder () in
  Frame.feed d (good ^ Bytes.to_string bad ^ good);
  (match drain_frames d with
  | [ Frame.Frame "good"; Frame.Damaged (Frame.Bad_crc { at; len = 4 });
      Frame.Frame "good" ] ->
      check Alcotest.int "bad frame offset" (String.length good) at
  | _ -> Alcotest.fail "a bad checksum skips one frame and decoding goes on");
  check Alcotest.(option string) "clean end" None (Frame.torn d);
  (* An absurd length latches: the buffer is dropped and later bytes,
     even whole frames, are ignored. *)
  let d = Frame.decoder ~max_len:16 () in
  let at_ceiling = String.make 16 'z' in
  Frame.feed d (Frame.encode at_ceiling);
  check Alcotest.bool "a frame at the ceiling passes" true
    (Frame.next d = Frame.Frame at_ceiling);
  Frame.feed d (good ^ Frame.encode (String.make 17 'y') ^ good);
  (match drain_frames d with
  | [ Frame.Frame "good"; Frame.Damaged (Frame.Bad_length { at; len = 17 }) ]
    ->
      check Alcotest.int "bad length offset" (24 + String.length good) at
  | _ -> Alcotest.fail "an over-ceiling length is fatal");
  check Alcotest.int "buffer dropped" 0 (Frame.buffered d);
  Frame.feed d good;
  check Alcotest.bool "latched" true
    (match Frame.next d with
    | Frame.Damaged (Frame.Bad_length _) -> true
    | _ -> false);
  (* The ceiling cannot be raised past [max_len]. *)
  let d = Frame.decoder ~max_len:(2 * Frame.max_len) () in
  Frame.feed d (Frame.header ~len:(Frame.max_len + 1) ~crc:0);
  check Alcotest.bool "capped ceiling" true
    (match Frame.next d with
    | Frame.Damaged (Frame.Bad_length _) -> true
    | _ -> false)

let test_frame_torn () =
  let f = Frame.encode "hello" in
  (* Offsets count the whole stream, not the decoder's buffer. *)
  let torn pieces =
    let d = Frame.decoder () in
    List.iter (fun p -> Frame.feed d p; ignore (drain_frames d)) pieces;
    Frame.torn d
  in
  check Alcotest.(option string) "header" (Some "torn header at offset 13")
    (torn [ f; "abc" ]);
  check Alcotest.(option string) "record"
    (Some "torn record at offset 26 (2 of 5 bytes)")
    (torn [ f; f; String.sub f 0 10 ]);
  check Alcotest.(option string) "whole" None (torn [ f; f ])

(* Payloads drawn from edge cases (empty, top-bit crc, NUL bytes) and
   random strings, some larger than the decoder's initial 4 KiB buffer so
   it grows and compacts; a chunking; at most one damage. *)
type damage_op =
  | Clean
  | Truncate of int
  | Flip_header of int * int  (* frame, bit of its 64-bit header *)
  | Flip_payload of int * int  (* frame, byte and bit seed *)

let gen_frame_case =
  let open QCheck.Gen in
  let payload =
    frequency
      [
        (1, oneofl [ ""; "a"; "abc"; "\000\000\000" ]);
        (3, string_size ~gen:char (int_bound 300));
        (1, string_size ~gen:char (int_range 3000 6000));
      ]
  in
  let damage =
    frequency
      [
        (1, return Clean);
        (1, map (fun n -> Truncate n) nat);
        (1, map2 (fun f b -> Flip_header (f, b)) nat (int_bound 63));
        (1, map2 (fun f b -> Flip_payload (f, b)) nat nat);
      ]
  in
  triple (list_size (int_bound 8) payload)
    (list_size (int_range 1 4) (int_range 1 2048))
    damage

let show_damage = function
  | Clean -> "clean"
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Flip_header (f, b) -> Printf.sprintf "flip header %d bit %d" f b
  | Flip_payload (f, b) -> Printf.sprintf "flip payload %d bit %d" f b

let decode_chunked stream chunks =
  let d = Frame.decoder () in
  let out = ref [] and off = ref 0 and sizes = ref chunks in
  let fatal () =
    match List.rev !out with
    | Frame.Damaged (Frame.Bad_length _) :: _ -> true
    | _ -> false
  in
  while !off < String.length stream && not (fatal ()) do
    (* Cycle through the chunk sizes. *)
    let c = List.hd !sizes in
    sizes := List.tl !sizes @ [ c ];
    let len = min c (String.length stream - !off) in
    Frame.feed d ~off:!off ~len stream;
    off := !off + len;
    out := !out @ drain_frames d
  done;
  (d, !out)

let rec is_subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
      if x = y then is_subsequence xs' ys' else is_subsequence xs ys'

let prop_frame_decoder =
  QCheck.Test.make ~count:1000
    ~name:"Frame decoder: clean, truncated and bit-flipped streams"
    (QCheck.make
       ~print:(fun (ps, cs, dmg) ->
         Printf.sprintf "payloads [%s] chunks [%s] %s"
           (String.concat "; " (List.map String.escaped ps))
           (String.concat "; " (List.map string_of_int cs))
           (show_damage dmg))
       gen_frame_case)
    (fun (payloads, chunks, damage) ->
      let frames = List.map Frame.encode payloads in
      let stream = String.concat "" frames in
      let starts =
        List.fold_left
          (fun (pos, acc) f -> (pos + String.length f, pos :: acc))
          (0, []) frames
        |> snd |> List.rev
      in
      let flip pos bit =
        let b = Bytes.of_string stream in
        Bytes.set b pos (Char.chr (Char.code stream.[pos] lxor (1 lsl bit)));
        Bytes.to_string b
      in
      let whole s = snd (decode_chunked s [ max_int ]) in
      let frames_of outs =
        List.filter_map (function Frame.Frame p -> Some p | _ -> None) outs
      in
      let all_frames outs =
        List.for_all (function Frame.Frame _ -> true | _ -> false) outs
      in
      let input, check_outcome =
        match damage with
        | Truncate n when stream <> "" ->
            let cut = n mod String.length stream in
            ( String.sub stream 0 cut,
              fun d outs ->
                (* Exactly the whole frames of the prefix, then Awaiting. *)
                let complete =
                  List.filteri
                    (fun i f -> List.nth starts i + String.length f <= cut)
                    frames
                in
                let torn =
                  let last = List.length complete in
                  let at = List.nth starts last in
                  if cut = at then None
                  else if cut - at < Frame.header_bytes then
                    Some (Printf.sprintf "torn header at offset %d" at)
                  else
                    Some
                      (Printf.sprintf "torn record at offset %d (%d of %d bytes)"
                         at (cut - at - Frame.header_bytes)
                         (String.length (List.nth payloads last)))
                in
                all_frames outs
                && List.map Frame.encode (frames_of outs) = complete
                && Frame.torn d = torn )
        | Flip_header (f, bit) when payloads <> [] ->
            let k = f mod List.length payloads in
            ( flip (List.nth starts k + (bit / 8)) (bit mod 8),
              fun _ outs ->
                (* The frames before the damaged one arrive intact, then
                   the damage shows (or the stream ends torn) before any
                   further frame; nothing that was not sent is yielded. *)
                let before l = List.filteri (fun i _ -> i < k) l in
                let ok = frames_of outs in
                before outs = List.map (fun p -> Frame.Frame p) (before payloads)
                && (match List.nth_opt outs k with
                   | None | Some (Frame.Damaged _) -> true
                   | Some _ -> false)
                && is_subsequence ok payloads
                && List.length ok < List.length payloads )
        | Flip_payload (f, bit) when List.exists (( <> ) "") payloads ->
            let nonempty =
              List.filter (fun i -> List.nth payloads i <> "")
                (List.init (List.length payloads) Fun.id)
            in
            let k = List.nth nonempty (f mod List.length nonempty) in
            let len = String.length (List.nth payloads k) in
            let at = List.nth starts k in
            ( flip (at + Frame.header_bytes + (bit mod len)) (bit mod 8),
              fun d outs ->
                (* A bad checksum skips exactly the damaged frame. *)
                outs
                = List.mapi
                    (fun i p ->
                      if i = k then Frame.Damaged (Frame.Bad_crc { at; len })
                      else Frame.Frame p)
                    payloads
                && Frame.torn d = None )
        | _ ->
            ( stream,
              fun d outs ->
                outs = List.map (fun p -> Frame.Frame p) payloads
                && Frame.buffered d = 0 && Frame.torn d = None )
      in
      let d, outs = decode_chunked input chunks in
      (* Chunking never changes the outcome. *)
      outs = whole input && check_outcome d outs)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          qtest prop_int_bounds;
          qtest prop_int_in_bounds;
          qtest prop_float_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "percentage" `Quick test_percentage;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "counter" `Quick test_counter;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
        ] );
      ( "pool",
        [
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "jobs > items" `Quick test_pool_more_jobs_than_items;
          Alcotest.test_case "exception payload survives" `Quick
            test_pool_exception_payload;
          Alcotest.test_case "lowest failing index wins" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "mapi/concat_map/map_array/init" `Quick
            test_pool_variants;
          Alcotest.test_case "slow items spawn workers" `Quick
            test_pool_spawns_for_slow_items;
          qtest prop_pool_order_preserved;
          qtest prop_pool_matches_sequential;
          Alcotest.test_case "detached job result" `Quick test_pool_job_result;
          Alcotest.test_case "detached job exception, single await" `Quick
            test_pool_job_exception;
          Alcotest.test_case "detached jobs concurrent" `Quick
            test_pool_jobs_concurrent;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "canonical vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "fs magic goldens" `Quick test_fnv_fs_magics;
          Alcotest.test_case "32-bit range" `Quick test_fnv_32bit_range;
        ] );
      ( "numarg",
        [
          Alcotest.test_case "int" `Quick test_numarg_int;
          Alcotest.test_case "positive" `Quick test_numarg_positive;
          Alcotest.test_case "non-negative" `Quick test_numarg_non_negative;
          Alcotest.test_case "fraction" `Quick test_numarg_fraction;
        ] );
      ( "frame",
        [
          Alcotest.test_case "crc32" `Quick test_frame_crc32;
          Alcotest.test_case "header" `Quick test_frame_header;
          Alcotest.test_case "damage policy" `Quick test_frame_damage_policy;
          Alcotest.test_case "torn reasons" `Quick test_frame_torn;
          qtest prop_frame_decoder;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "align" `Quick test_table_align;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
    ]
