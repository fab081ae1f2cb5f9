(** A complete execution trace: type layouts plus the ordered event stream.

    The simulator produces a [t] through a {!sink}; the post-processing
    pipeline ({!Lockdoc_db.Import}) consumes it. Traces can be saved to and
    loaded from a plain-text file so runs can be archived and re-analysed
    (the paper stresses this advantage of ex-post analysis, Sec. 3.3). *)

type t = { layouts : Layout.t list; events : Event.t array }

type sink
(** An append-only event collector. *)

val sink : unit -> sink
val emit : sink -> Event.t -> unit
val emitted : sink -> int
(** Number of events collected so far. *)

val finish : layouts:Layout.t list -> sink -> t

val save : string -> t -> unit
(** Write to a file; one line per layout/event. The bytes are those of
    {!to_lines}, each followed by a newline, streamed without building
    the list. *)

type mode =
  | Strict  (** raise {!Invalid} on the first anomalous line *)
  | Lenient  (** skip anomalous lines, collecting a {!Diag.t} for each *)

exception Invalid of Diag.t
(** Raised by strict-mode reads; carries file, line number and anomaly
    classification. *)

val read_lines : ?mode:mode -> ?file:string -> string list -> t * Diag.t list
(** Validating reader (default [Strict]). Per-line anomalies — unknown
    tags, truncated records, malformed fields, duplicate layouts — are
    classified recoverable vs fatal; in [Lenient] mode the offending line
    is skipped and reading continues. [?file] is only used to locate
    diagnostics. *)

val read : ?mode:mode -> string -> t * Diag.t list
(** [read path] is {!read_lines} over the lines of [path] (split at
    ['\n'], as [input_line] does): the same trace, the same diagnostics
    with the same line numbers, raised or collected the same way. It
    streams the file through a 64 KiB buffer (grown to hold a longer
    line) and parses well-formed event lines in place, interning source
    locations and names, so equal location text yields one shared
    {!Srcloc.t}. Any line it does not fully
    recognise goes through the validating path. Raises [Sys_error] if
    the file cannot be opened. *)

val load : string -> t
(** Inverse of {!save}. Strict: raises [Failure] carrying the file name
    and line number of the first bad line, or [Sys_error]. *)

val of_lines : string list -> t
(** Strict parse; raises [Failure] with the offending line number. *)

val to_lines : t -> string list

val count : t -> (Event.t -> bool) -> int
(** Number of events satisfying a predicate. *)
