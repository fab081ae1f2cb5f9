(* CRC-framed records: [len:int32 LE][crc32:int32 LE][payload].

   The one owner of the record format shared by the WAL segments, the
   serve wire protocol, LDOCBIN1 segments and the snapshot header. The
   decoder only classifies damage; each caller decides what it means
   (the WAL stops at a torn tail, a live connection closes, a packed
   trace skips the segment). *)

(* ---- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ---- Header ------------------------------------------------------- *)

let header_bytes = 8

(* Longest payload a length field is believed about: anything larger is
   a corrupt length, not a record. *)
let max_len = 1 lsl 26

let set_header b pos ~len ~crc =
  Bytes.set_int32_le b pos (Int32.of_int len);
  Bytes.set_int32_le b (pos + 4) (Int32.of_int crc)

let get_len b pos = Int32.to_int (Bytes.get_int32_le b pos)

(* The CRC field is unsigned: mask the sign-extended int32 back. *)
let get_crc b pos =
  Int32.to_int (Bytes.get_int32_le b (pos + 4)) land 0xFFFFFFFF

let header ~len ~crc =
  let b = Bytes.create header_bytes in
  set_header b 0 ~len ~crc;
  Bytes.unsafe_to_string b

let parse_header s pos =
  let b = Bytes.unsafe_of_string s in
  (get_len b pos, get_crc b pos)

let encode payload =
  let len = String.length payload in
  if len > max_len then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_bytes + len) in
  set_header b 0 ~len ~crc:(crc32 payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* ---- Incremental decoder ------------------------------------------ *)

type damage =
  | Bad_length of { at : int; len : int }
  | Bad_crc of { at : int; len : int }

type next = Frame of string | Awaiting | Damaged of damage

type decoder = {
  mutable buf : Bytes.t;
  mutable off : int;  (* consumed prefix of [buf] *)
  mutable len : int;  (* valid bytes in [buf], consumed ones included *)
  mutable pos : int;  (* stream offset of [buf.(off)] *)
  mutable dead : damage option;  (* latched [Bad_length] *)
  limit : int;
}

let decoder ?max_len:(limit = max_len) () =
  { buf = Bytes.create 4096; off = 0; len = 0; pos = 0; dead = None;
    limit = min limit max_len }

let buffered d = d.len - d.off

let feed d ?(off = 0) ?len s =
  let n = match len with Some l -> l | None -> String.length s - off in
  if n < 0 || off < 0 || off + n > String.length s then
    invalid_arg "Frame.feed";
  if d.dead = None && n > 0 then begin
    if d.len + n > Bytes.length d.buf then begin
      (* Slide the unconsumed suffix to the front; grow only when the
         pending frame really needs more room. *)
      let live = buffered d in
      let cap = Bytes.length d.buf in
      let buf =
        if live + n <= cap then d.buf
        else Bytes.create (max (2 * cap) (live + n))
      in
      Bytes.blit d.buf d.off buf 0 live;
      d.buf <- buf;
      d.off <- 0;
      d.len <- live
    end;
    Bytes.blit_string s off d.buf d.len n;
    d.len <- d.len + n
  end

let next d =
  match d.dead with
  | Some damage -> Damaged damage
  | None ->
      let avail = buffered d in
      if avail < header_bytes then Awaiting
      else
        let len = get_len d.buf d.off in
        if len < 0 || len > d.limit then begin
          let damage = Bad_length { at = d.pos; len } in
          (* Nothing past a lost length can be trusted, and a latched
             decoder must not keep the bytes alive. *)
          d.dead <- Some damage;
          d.off <- 0;
          d.len <- 0;
          Damaged damage
        end
        else if avail < header_bytes + len then Awaiting
        else begin
          let at = d.pos in
          let crc = get_crc d.buf d.off in
          let payload = Bytes.sub_string d.buf (d.off + header_bytes) len in
          d.off <- d.off + header_bytes + len;
          d.pos <- d.pos + header_bytes + len;
          if d.off = d.len then begin
            d.off <- 0;
            d.len <- 0
          end;
          if crc32 payload = crc then Frame payload
          else Damaged (Bad_crc { at; len })
        end

let reason = function
  | Bad_length { at; len } ->
      Printf.sprintf "corrupt length %d at offset %d" len at
  | Bad_crc { at; _ } -> Printf.sprintf "checksum mismatch at offset %d" at

let torn d =
  let avail = buffered d in
  if avail = 0 then None
  else if avail < header_bytes then
    Some (Printf.sprintf "torn header at offset %d" d.pos)
  else
    Some
      (Printf.sprintf "torn record at offset %d (%d of %d bytes)" d.pos
         (avail - header_bytes) (get_len d.buf d.off))
