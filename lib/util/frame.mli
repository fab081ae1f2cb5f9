(** CRC-framed records: [[len:int32 LE][crc32:int32 LE][payload]].

    The single owner of the record format behind WAL segments, the serve
    wire protocol, LDOCBIN1 trace segments and the snapshot header. The
    incremental decoder accepts bytes in arbitrary chunks — one byte at a
    time across the header boundary included — and classifies damage
    without deciding what it means; each caller applies its own policy
    (the WAL stops at the first bad frame, a serve connection closes, a
    packed trace skips the segment). *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3). [crc32 "123456789" = 0xCBF43926]; the result is
    non-negative, in [[0, 2^32)]. *)

val header_bytes : int
(** 8: the [len] + [crc] prefix. *)

val max_len : int
(** 64 MiB: the longest payload a length field is believed about. *)

val header : len:int -> crc:int -> string
(** The 8-byte header for a [len]-byte payload with checksum [crc]. *)

val parse_header : string -> int -> int * int
(** [parse_header s pos] reads the header at [pos] as [(len, crc)]; [len]
    is signed (a negative length is damage), [crc] unsigned. *)

val encode : string -> string
(** Header followed by the payload. Raises [Invalid_argument] above
    {!max_len}. *)

(** {2 Incremental decoding} *)

type damage =
  | Bad_length of { at : int; len : int }
      (** The length field of the frame at stream offset [at] reads [len],
          negative or over the decoder's ceiling. Fatal: the framing is
          lost, the decoder drops its buffer and repeats this damage on
          every later {!next}. *)
  | Bad_crc of { at : int; len : int }
      (** The [len]-byte payload of the frame at [at] fails its checksum.
          The frame has been skipped; decoding can go on. *)

type next = Frame of string | Awaiting | Damaged of damage

type decoder

val decoder : ?max_len:int -> unit -> decoder
(** A fresh decoder whose length ceiling is [max_len], capped at
    {!max_len} (the default): a server rejects a frame its config does not
    allow before buffering it. *)

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append received bytes (a substring of the argument). No-op once a
    [Bad_length] has latched. *)

val next : decoder -> next
(** Pop the next complete frame. [Awaiting] means feed more bytes. *)

val buffered : decoder -> int
(** Bytes held that are not yet part of a returned frame. *)

val reason : damage -> string
(** ["corrupt length L at offset N"] or ["checksum mismatch at offset N"]. *)

val torn : decoder -> string option
(** At end of input, after {!next} returned [Awaiting]: [None] when every
    byte belonged to a whole frame, else ["torn header at offset N"] or
    ["torn record at offset N (a of b bytes)"]. *)
