module Vec = Lockdoc_util.Vec

type t = { layouts : Layout.t list; events : Event.t array }

type sink = { mutable rev_events : Event.t list; mutable n : int }

let sink () = { rev_events = []; n = 0 }

let emit s e =
  s.rev_events <- e :: s.rev_events;
  s.n <- s.n + 1

let emitted s = s.n

let finish ~layouts s =
  let events = Array.make s.n (Event.Free { ptr = 0 }) in
  (* rev_events holds the newest event first; fill from the back. *)
  let rec fill i = function
    | [] -> ()
    | e :: rest ->
        events.(i) <- e;
        fill (i - 1) rest
  in
  fill (s.n - 1) s.rev_events;
  { layouts; events }

let to_lines t =
  let layout_lines = List.map (fun l -> "T\t" ^ Layout.to_string l) t.layouts in
  layout_lines @ List.map Event.to_line (Array.to_list t.events)

(* {2 Validating reader}

   The reader never throws away a whole file because of one bad line: each
   line either parses, or produces a {!Diag.t} classifying what went wrong.
   [Strict] mode raises on the first anomaly (with file/line context);
   [Lenient] mode skips the offending line and keeps reading. *)

type mode = Strict | Lenient

exception Invalid of Diag.t

module Obs = Lockdoc_obs.Obs

(* Ingestion metrics (no-ops unless metrics are enabled). Anomalies
   additionally count under a per-Diag-class name, created on first
   occurrence — anomalies are rare, so the registry lookup is off the
   hot path. *)
let c_rows = Obs.counter "trace.rows"
let c_events = Obs.counter "trace.events"
let c_layouts = Obs.counter "trace.layouts"
let c_recovered = Obs.counter "trace.recovered"

let count_anomaly d =
  if Obs.enabled () then
    Obs.incr (Obs.counter ("trace.anomaly." ^ Diag.kind_to_string d.Diag.d_kind))

let () =
  Printexc.register_printer (function
    | Invalid d -> Some (Diag.to_string d)
    | _ -> None)

(* Per-read state shared by the validating per-line path and the fast
   path of {!read}. *)
type reader = {
  r_mode : mode;
  r_file : string option;
  r_seen_types : (string, unit) Hashtbl.t;
  mutable r_layouts : Layout.t list; (* newest first *)
  r_events : Event.t Vec.t;
  mutable r_diags : Diag.t list; (* newest first *)
}

let reader ~mode ?file () =
  {
    r_mode = mode;
    r_file = file;
    r_seen_types = Hashtbl.create 16;
    r_layouts = [];
    r_events = Vec.create ();
    r_diags = [];
  }

let report r d =
  count_anomaly d;
  match r.r_mode with
  | Strict -> raise (Invalid d)
  | Lenient ->
      Obs.incr c_recovered;
      r.r_diags <- d :: r.r_diags

(* The validating path: classify one line exactly, or take its event. *)
let validate_line r lineno line =
  let diag kind message =
    report r (Diag.make ?file:r.r_file ~line:lineno kind message)
  in
  if String.length line = 0 then ()
  else if String.length line >= 2 && String.sub line 0 2 = "T\t" then begin
    let spec = String.sub line 2 (String.length line - 2) in
    match Layout.of_string spec with
    | l ->
        if Hashtbl.mem r.r_seen_types l.Layout.ty_name then
          diag Diag.Duplicate_layout
            ("layout for " ^ l.Layout.ty_name
           ^ " already declared; keeping the first")
        else begin
          Hashtbl.replace r.r_seen_types l.Layout.ty_name ();
          r.r_layouts <- l :: r.r_layouts
        end
    | exception Failure msg -> diag Diag.Malformed_field msg
  end
  else begin
    let fields = String.split_on_char '\t' line in
    let tag = match fields with t :: _ -> t | [] -> "" in
    match Event.arity_of_tag tag with
    | None ->
        diag Diag.Unknown_tag
          (Printf.sprintf "unknown record tag %S in line %S" tag line)
    | Some arity when List.length fields <> arity ->
        diag Diag.Truncated_record
          (Printf.sprintf "%s record has %d fields, expected %d: %S" tag
             (List.length fields) arity line)
    | Some _ -> (
        match Event.of_line line with
        | ev -> ignore (Vec.push r.r_events ev)
        | exception Failure msg -> diag Diag.Malformed_field msg)
  end

let finish_read r =
  let t =
    { layouts = List.rev r.r_layouts; events = Vec.to_array r.r_events }
  in
  Obs.add c_events (Array.length t.events);
  Obs.add c_layouts (List.length t.layouts);
  (t, List.rev r.r_diags)

let read_lines ?(mode = Strict) ?file lines =
  let r = reader ~mode ?file () in
  List.iteri
    (fun i line ->
      Obs.incr c_rows;
      validate_line r (i + 1) line)
    lines;
  finish_read r

(* Strict reading used to raise a bare [Failure] from deep inside the
   parser; callers now always get the file (when known) and line number. *)
let of_lines lines =
  match read_lines ~mode:Strict lines with
  | t, _ -> t
  | exception Invalid d -> failwith (Diag.to_string d)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc "T\t";
          output_string oc (Layout.to_string l);
          output_char oc '\n')
        t.layouts;
      let b = Buffer.create 256 in
      Array.iter
        (fun e ->
          Buffer.clear b;
          Event.add_line b e;
          Buffer.add_char b '\n';
          Buffer.output_buffer oc b)
        t.events)

(* {2 Fast path}

   [read] parses each line in place inside a reused chunk buffer: fields
   are found by index, ints are parsed from the bytes, and source
   locations and names are interned per read, so a trace with millions
   of events allocates little beyond the events themselves. The fast
   path accepts only lines it recognises completely — a known event tag
   with its exact arity, plain decimal ints, exact enum words and fields
   without a backslash — and produces exactly what {!Event.of_line}
   would. Every other line (layouts, escapes, bad arity or tags, odd
   ints) raises [Fallback] and goes to {!validate_line} with its line
   number, so diagnostics are those of {!read_lines}. *)

exception Fallback

let fallback () = raise_notrace Fallback

(* Open-addressing intern table keyed by a byte range of the buffer.
   [hashes.(i) = -1] marks a free slot. *)
type 'a intern = {
  mutable hashes : int array;
  mutable keys : string array;
  mutable vals : 'a array;
  mutable used : int;
  dummy : 'a;
}

let intern_create dummy =
  {
    hashes = Array.make 1024 (-1);
    keys = Array.make 1024 "";
    vals = Array.make 1024 dummy;
    used = 0;
    dummy;
  }

(* FNV-1a over [b.[s..e)], folded to a non-negative int. Every field
   this hashes is {!Fieldenc}-decoded on the validating path; without a
   backslash decoding is the identity, and a backslash sends the line
   to that path. *)
let hash_range b s e =
  let h = ref 0x811c9dc5 in
  for i = s to e - 1 do
    let c = Bytes.unsafe_get b i in
    if c = '\\' then fallback ();
    h := (!h lxor Char.code c) * 0x100000001b3
  done;
  !h land max_int

(* [w = b.[s..e)], without allocating. *)
let rec same_from w b s e i =
  i >= e
  || String.unsafe_get w (i - s) = Bytes.unsafe_get b i
     && same_from w b s e (i + 1)

let is_word b s e w = e - s = String.length w && same_from w b s e s

let rec probe t b s e h i =
  let hi = Array.unsafe_get t.hashes i in
  if hi = -1 || (hi = h && is_word b s e (Array.unsafe_get t.keys i)) then i
  else probe t b s e h ((i + 1) land (Array.length t.hashes - 1))

let intern_grow t =
  let old_h = t.hashes and old_k = t.keys and old_v = t.vals in
  let cap = 2 * Array.length old_h in
  t.hashes <- Array.make cap (-1);
  t.keys <- Array.make cap "";
  t.vals <- Array.make cap t.dummy;
  Array.iteri
    (fun j h ->
      if h <> -1 then begin
        let rec free i =
          if t.hashes.(i) = -1 then i else free ((i + 1) land (cap - 1))
        in
        let i = free (h land (cap - 1)) in
        t.hashes.(i) <- h;
        t.keys.(i) <- old_k.(j);
        t.vals.(i) <- old_v.(j)
      end)
    old_h

(* The value interned for [b.[s..e)], made by [make key] on first sight.
   [make] may raise [Fallback]; nothing is inserted then. *)
let intern t make b s e =
  let h = hash_range b s e in
  let i = probe t b s e h (h land (Array.length t.hashes - 1)) in
  if t.hashes.(i) <> -1 then Array.unsafe_get t.vals i
  else begin
    let key = Bytes.sub_string b s (e - s) in
    let v = make key in
    t.hashes.(i) <- h;
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.hashes then intern_grow t;
    v
  end

(* Plain decimal with an optional minus sign, at most 18 digits (always
   within range): exactly the ints [int_of_string] reads to the same
   value. Anything else is left to [int_of_string] on the slow path. *)
let parse_int b s e =
  let d = if s < e && Bytes.unsafe_get b s = '-' then s + 1 else s in
  if d >= e || e - d > 18 then fallback ();
  let n = ref 0 in
  for i = d to e - 1 do
    let c = Bytes.unsafe_get b i in
    if c < '0' || c > '9' then fallback ();
    n := (!n * 10) + (Char.code c - 48)
  done;
  if d > s then - !n else !n

let loc_of_key key =
  match String.rindex_opt key ':' with
  | None -> fallback ()
  | Some i ->
      let n = String.length key in
      let line = parse_int (Bytes.unsafe_of_string key) (i + 1) n in
      Srcloc.make (String.sub key 0 i) line

let lock_kind b s e =
  match e - s with
  | 3 when is_word b s e "rcu" -> Event.Rcu
  | 5 when is_word b s e "mutex" -> Event.Mutex
  | 5 when is_word b s e "rwsem" -> Event.Rwsem
  | 6 when is_word b s e "rwlock" -> Event.Rwlock
  | 6 when is_word b s e "pseudo" -> Event.Pseudo
  | 7 when is_word b s e "seqlock" -> Event.Seqlock
  | 8 when is_word b s e "spinlock" -> Event.Spinlock
  | 9 when is_word b s e "semaphore" -> Event.Semaphore
  | _ -> fallback ()

let one_char b s e = if e - s = 1 then Bytes.unsafe_get b s else '\000'

let side b s e =
  match one_char b s e with
  | 'x' -> Event.Exclusive
  | 's' -> Event.Shared
  | _ -> fallback ()

let access b s e =
  match one_char b s e with
  | 'r' -> Event.Read
  | 'w' -> Event.Write
  | _ -> fallback ()

let ctx_kind b s e =
  if is_word b s e "task" then Event.Task
  else if is_word b s e "softirq" then Event.Softirq
  else if is_word b s e "hardirq" then Event.Hardirq
  else fallback ()

let max_fields = 6

type fast = {
  locs : Srcloc.t intern;
  names : string intern;
  starts : int array; (* field i is [starts.(i), ends.(i)) *)
  ends : int array;
}

let fast () =
  {
    locs = intern_create Srcloc.none;
    names = intern_create "";
    starts = Array.make max_fields 0;
    ends = Array.make max_fields 0;
  }

let int_at f b i = parse_int b f.starts.(i) f.ends.(i)
let name_at f b i = intern f.names Fun.id b f.starts.(i) f.ends.(i)
let loc_at f b i = intern f.locs loc_of_key b f.starts.(i) f.ends.(i)

(* The event on line [b.[s..e)], or [Fallback]. *)
let fast_event f b s e =
  let starts = f.starts and ends = f.ends in
  let n = ref 0 in
  starts.(0) <- s;
  for i = s to e - 1 do
    if Bytes.unsafe_get b i = '\t' then begin
      ends.(!n) <- i;
      incr n;
      if !n >= max_fields then fallback ();
      starts.(!n) <- i + 1
    end
  done;
  ends.(!n) <- e;
  let nf = !n + 1 in
  let tag_len = ends.(0) - s in
  match (if tag_len = 1 then Bytes.unsafe_get b s else '\000'), nf with
  | 'M', 5 ->
      Event.Mem_access
        {
          ptr = int_at f b 1;
          size = int_at f b 2;
          kind = access b starts.(3) ends.(3);
          loc = loc_at f b 4;
        }
  | 'E', 3 -> Event.Fun_enter { fn = name_at f b 1; loc = loc_at f b 2 }
  | 'X', 2 -> Event.Fun_exit { fn = name_at f b 1 }
  | 'C', 3 ->
      Event.Ctx_switch { pid = int_at f b 1; kind = ctx_kind b starts.(2) ends.(2) }
  | 'F', 2 -> Event.Free { ptr = int_at f b 1 }
  | 'A', 5 ->
      Event.Alloc
        {
          ptr = int_at f b 1;
          size = int_at f b 2;
          data_type = name_at f b 3;
          subclass =
            (if is_word b starts.(4) ends.(4) "-" then None else Some (name_at f b 4));
        }
  | _ ->
      if tag_len <> 2 || Bytes.unsafe_get b s <> 'L' then fallback ()
      else begin
        match Bytes.unsafe_get b (s + 1), nf with
        | '+', 6 ->
            Event.Lock_acquire
              {
                lock_ptr = int_at f b 1;
                kind = lock_kind b starts.(2) ends.(2);
                side = side b starts.(3) ends.(3);
                name = name_at f b 4;
                loc = loc_at f b 5;
              }
        | '-', 3 -> Event.Lock_release { lock_ptr = int_at f b 1; loc = loc_at f b 2 }
        | _ -> fallback ()
      end

let rec newline b i hi =
  if i >= hi then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else newline b (i + 1) hi

(* Bytes read per refill; the buffer grows only to hold a longer line. *)
let chunk_size = 1 lsl 16

let read ?(mode = Strict) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = reader ~mode ~file:path () in
      let f = fast () in
      let buf = ref (Bytes.create chunk_size) in
      let lineno = ref 0 in
      let line s e =
        incr lineno;
        Obs.incr c_rows;
        match fast_event f !buf s e with
        | ev -> ignore (Vec.push r.r_events ev)
        | exception Fallback ->
            validate_line r !lineno (Bytes.sub_string !buf s (e - s))
      in
      (* [buf.[lo..hi)] is unconsumed input, with no newline before
         [scan]. *)
      let lo = ref 0 and hi = ref 0 and scan = ref 0 and eof = ref false in
      while not !eof do
        let nl = newline !buf !scan !hi in
        if nl >= 0 then begin
          line !lo nl;
          lo := nl + 1;
          scan := nl + 1
        end
        else begin
          (* Keep the partial line, at the front of a buffer with room
             for more, and refill. *)
          let rest = !hi - !lo in
          if rest = Bytes.length !buf then begin
            let bigger = Bytes.create (2 * rest) in
            Bytes.blit !buf !lo bigger 0 rest;
            buf := bigger
          end
          else if !lo > 0 then Bytes.blit !buf !lo !buf 0 rest;
          lo := 0;
          hi := rest;
          scan := rest;
          let got = input ic !buf rest (Bytes.length !buf - rest) in
          if got = 0 then begin
            eof := true;
            if rest > 0 then line 0 rest
          end
          else hi := rest + got
        end
      done;
      finish_read r)

let load path =
  match read ~mode:Strict path with
  | t, _ -> t
  | exception Invalid d -> failwith (Diag.to_string d)

let count t pred = Array.fold_left (fun acc e -> if pred e then acc + 1 else acc) 0 t.events
