module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Srcloc = Lockdoc_trace.Srcloc
module Diag = Lockdoc_trace.Diag
module Trace = Lockdoc_trace.Trace
module Frame = Lockdoc_util.Frame
module Obs = Lockdoc_obs.Obs

let magic = "LDOCBIN1"

let default_segment_bytes = 64 * 1024

let c_segments = Obs.counter "stream.segments"
let c_events = Obs.counter "stream.events"
let c_recovered = Obs.counter "stream.recovered"

let is_binary s =
  let n = min (String.length s) (String.length magic) in
  n >= 4 && String.sub s 0 n = String.sub magic 0 n

let file_is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = min 8 (in_channel_length ic) in
          is_binary (really_input_string ic n))

(* Record opcodes. Interned strings carry explicit ids so that a
   skipped (corrupt) segment cannot shift the meaning of ids interned
   later — decoding degrades per-record instead of garbling the rest of
   the stream. *)
let op_intern = 0
let op_layout = 1
let op_alloc = 2
let op_free = 3
let op_acquire = 4
let op_release = 5
let op_mem = 6
let op_enter = 7
let op_exit = 8
let op_ctx = 9

let lock_kind_code = function
  | Event.Spinlock -> 0
  | Event.Rwlock -> 1
  | Event.Mutex -> 2
  | Event.Semaphore -> 3
  | Event.Rwsem -> 4
  | Event.Rcu -> 5
  | Event.Seqlock -> 6
  | Event.Pseudo -> 7

let lock_kind_of_code = function
  | 0 -> Event.Spinlock
  | 1 -> Event.Rwlock
  | 2 -> Event.Mutex
  | 3 -> Event.Semaphore
  | 4 -> Event.Rwsem
  | 5 -> Event.Rcu
  | 6 -> Event.Seqlock
  | 7 -> Event.Pseudo
  | c -> failwith (Printf.sprintf "bad lock kind code %d" c)

let ctx_code = function Event.Task -> 0 | Event.Softirq -> 1 | Event.Hardirq -> 2

let ctx_of_code = function
  | 0 -> Event.Task
  | 1 -> Event.Softirq
  | 2 -> Event.Hardirq
  | c -> failwith (Printf.sprintf "bad context code %d" c)

(* ---- Encoder ------------------------------------------------------ *)

type encoder = {
  emit : string -> unit;
  segment_bytes : int;
  buf : Buffer.t;  (* payload of the segment being built *)
  strings : (string, int) Hashtbl.t;
  mutable next_string : int;
  (* Delta registers; reset at each segment boundary so segments are
     self-contained modulo the string table. *)
  mutable e_ptr : int;
  mutable e_lock : int;
  mutable e_line : int;
  mutable e_pid : int;
  mutable closed : bool;
}

let encoder ?(segment_bytes = default_segment_bytes) emit =
  emit magic;
  {
    emit;
    segment_bytes;
    buf = Buffer.create (segment_bytes + 1024);
    strings = Hashtbl.create 256;
    next_string = 0;
    e_ptr = 0;
    e_lock = 0;
    e_line = 0;
    e_pid = 0;
    closed = false;
  }

let reset_registers e =
  e.e_ptr <- 0;
  e.e_lock <- 0;
  e.e_line <- 0;
  e.e_pid <- 0

let rotate e =
  if Buffer.length e.buf > 0 then begin
    e.emit (Frame.encode (Buffer.contents e.buf));
    Buffer.clear e.buf;
    reset_registers e
  end

let guard_open e = if e.closed then invalid_arg "Codec: encoder is closed"

let intern e s =
  match Hashtbl.find_opt e.strings s with
  | Some id -> id
  | None ->
      let id = e.next_string in
      e.next_string <- id + 1;
      Hashtbl.replace e.strings s id;
      Varint.write_uint e.buf op_intern;
      Varint.write_uint e.buf id;
      Varint.write_uint e.buf (String.length s);
      Buffer.add_string e.buf s;
      id

let add_layout e layout =
  guard_open e;
  if Buffer.length e.buf >= e.segment_bytes then rotate e;
  let id = intern e (Layout.to_string layout) in
  Varint.write_uint e.buf op_layout;
  Varint.write_uint e.buf id

let add_event e ev =
  guard_open e;
  if Buffer.length e.buf >= e.segment_bytes then rotate e;
  let b = e.buf in
  (match ev with
  | Event.Alloc { ptr; size; data_type; subclass } ->
      (* Interning may append records; resolve ids before the opcode so
         the event record stays contiguous. *)
      let dt = intern e data_type in
      let sub = match subclass with None -> 0 | Some s -> intern e s + 1 in
      Varint.write_uint b op_alloc;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr;
      Varint.write_uint b size;
      Varint.write_uint b dt;
      Varint.write_uint b sub
  | Event.Free { ptr } ->
      Varint.write_uint b op_free;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr
  | Event.Lock_acquire { lock_ptr; kind; side; name; loc } ->
      let name_id = intern e name in
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_acquire;
      Varint.write_int b (lock_ptr - e.e_lock);
      e.e_lock <- lock_ptr;
      Varint.write_uint b (lock_kind_code kind);
      Varint.write_uint b (match side with Event.Exclusive -> 0 | Event.Shared -> 1);
      Varint.write_uint b name_id;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Lock_release { lock_ptr; loc } ->
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_release;
      Varint.write_int b (lock_ptr - e.e_lock);
      e.e_lock <- lock_ptr;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Mem_access { ptr; size; kind; loc } ->
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_mem;
      Varint.write_int b (ptr - e.e_ptr);
      e.e_ptr <- ptr;
      Varint.write_uint b size;
      Varint.write_uint b (match kind with Event.Read -> 0 | Event.Write -> 1);
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Fun_enter { fn; loc } ->
      let fn_id = intern e fn in
      let file_id = intern e loc.Srcloc.file in
      Varint.write_uint b op_enter;
      Varint.write_uint b fn_id;
      Varint.write_uint b file_id;
      Varint.write_int b (loc.Srcloc.line - e.e_line);
      e.e_line <- loc.Srcloc.line
  | Event.Fun_exit { fn } ->
      let fn_id = intern e fn in
      Varint.write_uint b op_exit;
      Varint.write_uint b fn_id
  | Event.Ctx_switch { pid; kind } ->
      Varint.write_uint b op_ctx;
      Varint.write_int b (pid - e.e_pid);
      e.e_pid <- pid;
      Varint.write_uint b (ctx_code kind));
  Obs.incr c_events

let close_encoder e =
  guard_open e;
  rotate e;
  e.closed <- true

let encode_trace ?segment_bytes trace =
  let out = Buffer.create 4096 in
  let e = encoder ?segment_bytes (Buffer.add_string out) in
  List.iter (add_layout e) trace.Trace.layouts;
  Array.iter (add_event e) trace.Trace.events;
  close_encoder e;
  Buffer.contents out

(* ---- Decoder ------------------------------------------------------ *)

type decoder = {
  mode : Trace.mode;
  file : string option;
  mutable head : string;  (* the magic's bytes received so far *)
  frames : Frame.decoder;  (* everything after the magic *)
  mutable dead : bool;  (* framing lost for good (bad magic / absurd length) *)
  table : (int, string) Hashtbl.t;
  mutable rev_events : Event.t list;  (* drained by [events] *)
  mutable rev_layouts : Layout.t list;
  mutable rev_diags : Diag.t list;
  mutable n_events : int;  (* total decoded, labels diagnostics *)
  mutable finished : bool;
}

let decoder ?(mode = Trace.Strict) ?file () =
  {
    mode;
    file;
    head = "";
    frames = Frame.decoder ();
    dead = false;
    table = Hashtbl.create 256;
    rev_events = [];
    rev_layouts = [];
    rev_diags = [];
    n_events = 0;
    finished = false;
  }

let report d kind msg =
  let diag = Diag.make ?file:d.file ~event:d.n_events kind msg in
  match d.mode with
  | Trace.Strict -> raise (Trace.Invalid diag)
  | Trace.Lenient ->
      Obs.incr c_recovered;
      d.rev_diags <- diag :: d.rev_diags

let resolve d id =
  match Hashtbl.find_opt d.table id with
  | Some s -> s
  | None -> failwith (Printf.sprintf "unknown string id %d" id)

(* Decode one segment payload. Returns normally even on damage: every
   anomaly is reported through [report] (which raises in Strict mode).
   Operand parse errors abandon the rest of the payload — without a
   valid varint there is no way to find the next record boundary —
   while string-resolution errors skip just the offending record. *)
let decode_payload d payload =
  let len = String.length payload in
  let pos = ref 0 in
  (* Per-segment delta registers, mirroring the encoder's reset. *)
  let r_ptr = ref 0 and r_lock = ref 0 and r_line = ref 0 and r_pid = ref 0 in
  let uint () =
    let v, next = Varint.read_uint payload !pos in
    pos := next;
    v
  in
  let int () =
    let v, next = Varint.read_int payload !pos in
    pos := next;
    v
  in
  let delta reg =
    let v = !reg + int () in
    reg := v;
    v
  in
  let loc_of (file_id, line) = Srcloc.make (resolve d file_id) line in
  let emit ev =
    d.rev_events <- ev :: d.rev_events;
    d.n_events <- d.n_events + 1;
    Obs.incr c_events
  in
  let stop = ref false in
  while (not !stop) && !pos < len do
    match uint () with
    | exception Failure msg ->
        report d Diag.Truncated_record ("segment record: " ^ msg);
        stop := true
    | op -> (
        (* Phase 1: parse operands and update registers (keeps later
           deltas meaningful even when this record is dropped). *)
        match
          match op with
          | op when op = op_intern ->
              let id = uint () in
              let n = uint () in
              if n < 0 || n > len - !pos then failwith "string length overruns segment";
              let s = String.sub payload !pos n in
              pos := !pos + n;
              `Intern (id, s)
          | op when op = op_layout -> `Layout (uint ())
          | op when op = op_alloc ->
              let ptr = delta r_ptr in
              let size = uint () in
              let dt = uint () in
              let sub = uint () in
              `Alloc (ptr, size, dt, sub)
          | op when op = op_free -> `Free (delta r_ptr)
          | op when op = op_acquire ->
              let ptr = delta r_lock in
              let kind = uint () in
              let side = uint () in
              let name = uint () in
              let file = uint () in
              let line = delta r_line in
              `Acquire (ptr, kind, side, name, (file, line))
          | op when op = op_release ->
              let ptr = delta r_lock in
              let file = uint () in
              let line = delta r_line in
              `Release (ptr, (file, line))
          | op when op = op_mem ->
              let ptr = delta r_ptr in
              let size = uint () in
              let kind = uint () in
              let file = uint () in
              let line = delta r_line in
              `Mem (ptr, size, kind, (file, line))
          | op when op = op_enter ->
              let fn = uint () in
              let file = uint () in
              let line = delta r_line in
              `Enter (fn, (file, line))
          | op when op = op_exit -> `Exit (uint ())
          | op when op = op_ctx ->
              let pid = delta r_pid in
              let kind = uint () in
              `Ctx (pid, kind)
          | op -> `Unknown op
        with
        | exception Failure msg ->
            report d Diag.Truncated_record ("segment record: " ^ msg);
            stop := true
        | `Unknown op ->
            (* Operand widths are unknowable: resynchronise at the next
               segment, not mid-payload. *)
            report d Diag.Unknown_tag
              (Printf.sprintf "unknown binary record opcode %d" op);
            stop := true
        | parsed -> (
            (* Phase 2: resolve interned strings and emit. A bad id (its
               intern record lived in a corrupt, skipped segment) loses
               only this record. *)
            match
              match parsed with
              | `Intern (id, s) -> Hashtbl.replace d.table id s
              | `Layout id ->
                  let l = Layout.of_string (resolve d id) in
                  d.rev_layouts <- l :: d.rev_layouts
              | `Alloc (ptr, size, dt, sub) ->
                  let subclass =
                    if sub = 0 then None else Some (resolve d (sub - 1))
                  in
                  emit
                    (Event.Alloc
                       { ptr; size; data_type = resolve d dt; subclass })
              | `Free ptr -> emit (Event.Free { ptr })
              | `Acquire (lock_ptr, kind, side, name, loc) ->
                  let side =
                    match side with
                    | 0 -> Event.Exclusive
                    | 1 -> Event.Shared
                    | c -> failwith (Printf.sprintf "bad side code %d" c)
                  in
                  emit
                    (Event.Lock_acquire
                       {
                         lock_ptr;
                         kind = lock_kind_of_code kind;
                         side;
                         name = resolve d name;
                         loc = loc_of loc;
                       })
              | `Release (lock_ptr, loc) ->
                  emit (Event.Lock_release { lock_ptr; loc = loc_of loc })
              | `Mem (ptr, size, kind, loc) ->
                  let kind =
                    match kind with
                    | 0 -> Event.Read
                    | 1 -> Event.Write
                    | c -> failwith (Printf.sprintf "bad access code %d" c)
                  in
                  emit (Event.Mem_access { ptr; size; kind; loc = loc_of loc })
              | `Enter (fn, loc) ->
                  emit
                    (Event.Fun_enter { fn = resolve d fn; loc = loc_of loc })
              | `Exit fn -> emit (Event.Fun_exit { fn = resolve d fn })
              | `Ctx (pid, kind) ->
                  emit (Event.Ctx_switch { pid; kind = ctx_of_code kind })
              | `Unknown _ -> assert false (* handled above *)
            with
            | () -> ()
            | exception Failure msg ->
                report d Diag.Malformed_field ("binary record: " ^ msg)))
  done

(* A corrupt segment is skipped and decoding goes on; a lost length
   field ends the stream. *)
let rec drain d =
  match Frame.next d.frames with
  | Frame.Awaiting -> ()
  | Frame.Frame payload ->
      Obs.incr c_segments;
      decode_payload d payload;
      drain d
  | Frame.Damaged (Frame.Bad_crc { len; _ }) ->
      report d Diag.Malformed_field
        (Printf.sprintf "segment CRC mismatch (%d bytes skipped)" len);
      drain d
  | Frame.Damaged (Frame.Bad_length { len; _ }) ->
      d.dead <- true;
      report d Diag.Truncated_record
        (Printf.sprintf "absurd segment length %d: torn or garbled frame" len)

let feed d chunk =
  if d.finished then invalid_arg "Codec: decoder is finished";
  (* Once dead, framing is lost: drop everything after the diag. *)
  if not d.dead then begin
    let m = String.length magic in
    let take = min (String.length chunk) (m - String.length d.head) in
    if take > 0 then begin
      d.head <- d.head ^ String.sub chunk 0 take;
      if String.length d.head = m && d.head <> magic then begin
        d.dead <- true;
        report d Diag.Malformed_field
          "not a LDOCBIN1 binary trace (bad magic)"
      end
    end;
    if d.head = magic then begin
      Frame.feed d.frames ~off:take chunk;
      drain d
    end
  end

let events d =
  let evs = List.rev d.rev_events in
  d.rev_events <- [];
  evs

let layouts d = List.rev d.rev_layouts

let finish d =
  if not d.finished then begin
    d.finished <- true;
    let remaining =
      if d.head = magic then Frame.buffered d.frames else String.length d.head
    in
    if (not d.dead) && d.head <> magic then
      report d Diag.Truncated_record
        (Printf.sprintf "binary trace ends before the magic (%d bytes)"
           remaining)
    else if (not d.dead) && remaining > 0 then
      report d Diag.Truncated_record
        (Printf.sprintf "torn tail: %d trailing bytes are not a whole segment"
           remaining)
  end;
  List.rev d.rev_diags

let decode_string ?mode ?file s =
  let d = decoder ?mode ?file () in
  feed d s;
  let diags = finish d in
  let events = events d in
  ( { Trace.layouts = layouts d; Trace.events = Array.of_list events }, diags )
