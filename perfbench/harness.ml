(* Measurement helpers shared by the benchmark program and its self-tests:
   order statistics, the output gate, metric-name validation, spans
   recorded around library calls, and peak-RSS bookkeeping. *)

(* {1 Order statistics} *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Harness.percentile: no samples"
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

(* The median interpolates between the two middle samples of an even
   count, so two requests of a long workload average rather than pick. *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Harness.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [rounds] holds, for each round of work, the times of its parts in
   order. Each position gets its median over the rounds that reached it:
   a burst of noise that slows one round at some point is outvoted there
   by the other rounds, where a median of whole-round times moves with
   any round a burst touched. *)
let position_medians rounds =
  let rec go i =
    match List.filter_map (fun parts -> List.nth_opt parts i) rounds with
    | [] -> []
    | column -> median column :: go (i + 1)
  in
  if rounds = [] then invalid_arg "Harness.position_medians: no rounds" else go 0

(* The time of a typical round, part by part. With every round a single
   part this is the median round time. *)
let median_round rounds = List.fold_left ( +. ) 0. (position_medians rounds)

(* A tail percentile is only reported when at least [min_above] samples
   lie strictly above it; with fewer it describes a handful of requests,
   not a tail. *)
let min_above = 10

let tail_percentile p xs =
  match xs with
  | [] -> None
  | _ ->
      let v = percentile p xs in
      let above = List.length (List.filter (fun x -> x > v) xs) in
      if above >= min_above then Some v else None

(* {1 Output gate}

   Every request's output is reduced to a digest. A request passes only
   if its digest equals every cross-path digest computed for the same
   input (text vs LDOCBIN1, jobs 1 vs 2, online vs batch) and, at the
   workload's default seed, the digest committed under [expected/]. *)

let digest_hex s = Digest.to_hex (Digest.string s)

type gate = { expected : string option; cross : string list }

let passes gate d =
  List.for_all (String.equal d) gate.cross
  && match gate.expected with None -> true | Some e -> String.equal e d

(* [expected/<workload>] holds "<item> <md5-hex>" lines. *)
let read_expected path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ item; d ] -> Some (item, d)
           | _ -> None)

(* {1 Metric names} *)

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Harness.metric: bad name " ^ name);
  { name; unit_; value }

(* Finite numbers only: JSON has no NaN or infinity. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         ms)
  ^ "}"

(* {1 Clocks, GC counters, spans} *)

let now () = Unix.gettimeofday ()

(* Process CPU time, summed over every domain. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Time the hypervisor stole}

   On a virtual machine the host can run other guests on this VM's
   vCPUs; the guest kernel counts that time as "steal" in /proc/stat. On
   a shared host it comes in bursts that stretch wall times by up to 40%
   for tens of seconds, so the benchmark takes it out of every time it
   reports. Where /proc/stat has no steal column, steal reads 0 and the
   times are plain wall times. *)

(* Linux reports /proc/stat in USER_HZ ticks, 100 per second. *)
let user_hz = 100.

(* Seconds stolen from all vCPUs together since boot. *)
let steal () =
  try
    let line = In_channel.with_open_text "/proc/stat" In_channel.input_line in
    match List.filter (( <> ) "") (String.split_on_char ' ' (Option.get line)) with
    | "cpu" :: fields when List.length fields >= 8 ->
        float_of_string (List.nth fields 7) /. user_hz
    | _ -> 0.
  with Sys_error _ | Failure _ | Invalid_argument _ -> 0.

type clock = { c_wall : float; c_cpu : float; c_steal : float }

let clock () = { c_wall = now (); c_cpu = cpu (); c_steal = steal () }

(* The part of the wall time between two clocks that the process was not
   held up by steal. Process CPU time leaves steal out, and steal only
   accrues on a vCPU that has work to run. If the process kept its busy
   vCPUs working for [w] of the [wall] seconds and lost the rest to steal
   on each of them, then cpu = p w and steal = p (wall - w) for p busy
   vCPUs, so the lost share is steal / (cpu + steal) whatever p is, and
   whether p changed along the way as long as steal hit each busy vCPU at
   the same rate. The process never lost more than the steal itself. *)
let unstolen_fraction a b =
  let wall = b.c_wall -. a.c_wall and cpu = b.c_cpu -. a.c_cpu in
  let steal = b.c_steal -. a.c_steal in
  if wall <= 0. || steal <= 0. then 1.
  else
    let lost = Float.min steal (steal *. wall /. (Float.max cpu 0. +. steal)) in
    Float.max 0.1 (1. -. (lost /. wall))

(* Wall seconds between two clocks, less the time stolen. *)
let unstolen a b = (b.c_wall -. a.c_wall) *. unstolen_fraction a b

(* The stretch between two clocks cut at the wall times [laps] into
   parts, each less its share of the time stolen over the whole stretch. *)
let parts a b ~laps =
  let f = unstolen_fraction a b in
  let rec go = function
    | x :: (y :: _ as rest) -> ((y -. x) *. f) :: go rest
    | _ -> []
  in
  go ((a.c_wall :: laps) @ [ b.c_wall ])

type sample = {
  wall : float;
  cpu : float;
  alloc_words : float;  (** minor + major - promoted *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  heap_words : int;
}

let sample () =
  let g = Gc.quick_stat () in
  {
    wall = now ();
    cpu = cpu ();
    alloc_words = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    minor_words = g.Gc.minor_words;
    promoted_words = g.Gc.promoted_words;
    major_collections = g.Gc.major_collections;
    heap_words = g.Gc.heap_words;
  }

(* The accumulated cost of every call made under one span name. *)
type acc = {
  mutable calls : int;
  mutable s_wall : float;
  mutable s_cpu : float;
  mutable s_alloc_bytes : float;
  mutable s_heap_growth_bytes : float;
  mutable s_minor_words : float;
  mutable s_promoted_words : float;
  mutable s_major_collections : int;
}

let word_bytes = float_of_int (Sys.word_size / 8)

(* Spans live in memory for the whole run; [tracing] is off for the
   end-to-end run, where [span] is a plain call. [overhead] accumulates
   the time spent taking the span samples themselves.

   Heap growth is only recorded in the first round of requests, and
   [first_counts] holds that round's work counts: later rounds reuse the
   heap the first one grew, so summing over all of them would divide one
   round's growth by the work of every round. *)
type tracer = {
  tracing : bool;
  spans : (string, acc) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  first_counts : (string, float) Hashtbl.t;
  mutable first_round : bool;
  mutable overhead : float;
  mutable laps : float list;  (** times marked by [lap], latest first *)
}

let tracer tracing =
  {
    tracing; spans = Hashtbl.create 16; counts = Hashtbl.create 16;
    first_counts = Hashtbl.create 16; first_round = true; overhead = 0.; laps = [];
  }

let end_first_round t = t.first_round <- false

(* Stage boundaries inside a request, marked whether or not [t] is
   tracing: they split a request's time into the parts [median_round]
   takes medians of. [take_laps] returns them in order and forgets them. *)
let lap t = t.laps <- now () :: t.laps

let take_laps t =
  let l = List.rev t.laps in
  t.laps <- [];
  l

let lookup table name = Option.value ~default:0. (Hashtbl.find_opt table name)
let add table name v = Hashtbl.replace table name (lookup table name +. v)

(* Work counts taken at the same boundaries as the spans, so per-unit
   ratios divide a layer's cost by the work that layer did. [n] is only
   forced when tracing. *)
let count t name n =
  if t.tracing then begin
    let v = n () in
    add t.counts name v;
    if t.first_round then add t.first_counts name v
  end

let counted t = lookup t.counts
let counted_first t = lookup t.first_counts

let acc t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
      let a =
        {
          calls = 0; s_wall = 0.; s_cpu = 0.; s_alloc_bytes = 0.;
          s_heap_growth_bytes = 0.; s_minor_words = 0.; s_promoted_words = 0.;
          s_major_collections = 0;
        }
      in
      Hashtbl.replace t.spans name a;
      a

let record t name (b : sample) (e : sample) =
  let a = acc t name in
  a.calls <- a.calls + 1;
  a.s_wall <- a.s_wall +. (e.wall -. b.wall);
  a.s_cpu <- a.s_cpu +. (e.cpu -. b.cpu);
  a.s_alloc_bytes <- a.s_alloc_bytes +. ((e.alloc_words -. b.alloc_words) *. word_bytes);
  if t.first_round then
    a.s_heap_growth_bytes <-
      a.s_heap_growth_bytes +. (float_of_int (e.heap_words - b.heap_words) *. word_bytes);
  a.s_minor_words <- a.s_minor_words +. (e.minor_words -. b.minor_words);
  a.s_promoted_words <- a.s_promoted_words +. (e.promoted_words -. b.promoted_words);
  a.s_major_collections <- a.s_major_collections + (e.major_collections - b.major_collections)

let span t name f =
  if not t.tracing then f ()
  else begin
    let t0 = now () in
    let b = sample () in
    t.overhead <- t.overhead +. (now () -. t0);
    let r = f () in
    let t1 = now () in
    let e = sample () in
    record t name b e;
    t.overhead <- t.overhead +. (now () -. t1);
    r
  end

let find t name = Hashtbl.find_opt t.spans name

(* {1 Peak resident memory}

   Writing "5" to /proc/self/clear_refs resets VmHWM to the current RSS,
   so the peak read afterwards belongs to the phase that follows. *)

let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5");
    true
  with Sys_error _ -> false

let status_kb field =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = field ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             Scanf.sscanf_opt (String.trim rest) "%d kB" Fun.id
         | _ -> None)

let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "Harness.peak_rss_mb: no VmHWM in /proc/self/status"

(* {1 The metrics the benchmark emits}

   Every metric name is built here and nowhere else, so the self-test can
   check all of them. *)

let setup_metrics ~setup_s = [ metric "setup_s" "s" setup_s ]

let ksim_metrics ~ns_per_event ~alloc_bytes_per_event =
  [
    metric "ksim.ns_per_event" "ns/event" ns_per_event;
    metric "ksim.alloc_bytes_per_event" "B/event" alloc_bytes_per_event;
  ]

let end_to_end_metrics ~p50_ms ~throughput_eps ~peak_rss_mb =
  [
    metric "latency_p50_ms" "ms" p50_ms;
    metric "throughput_eps" "events/s" throughput_eps;
    metric "peak_rss_mb" "MiB" peak_rss_mb;
  ]

(* Per-layer metrics from the spans and counts of a traced run. A layer
   the workload never calls reads 0. [jobs] is the domain count the
   CPU-utilisation ratios divide by. *)
let layer_metrics t ~jobs ~p50_ms ~request_wall ~steal_frac =
  let n = float_of_int in
  let get f name = match find t name with Some a -> f a | None -> 0. in
  let wall = get (fun a -> a.s_wall) and calls = get (fun a -> n a.calls) in
  let ns name = wall name *. 1e9 and ms name = wall name *. 1e3 in
  let alloc = get (fun a -> a.s_alloc_bytes) in
  let heap = get (fun a -> a.s_heap_growth_bytes) in
  let c = counted t and c1 = counted_first t in
  let per a b = if b > 0. then a /. b else 0. in
  let util name = per (get (fun a -> a.s_cpu) name) (wall name *. n jobs) in
  let m = metric in
  [
    m "parse.ns_per_event" "ns/event" (per (ns "parse") (c "parse.events"));
    m "parse.alloc_bytes_per_event" "B/event" (per (alloc "parse") (c "parse.events"));
    m "parse.input_bytes_per_event" "B/event" (per (c "parse.bytes") (c "parse.events"));
    m "decode.ns_per_event" "ns/event" (per (ns "decode") (c "decode.events"));
    m "decode.input_bytes_per_event" "B/event" (per (c "decode.bytes") (c "decode.events"));
    m "import.ns_per_event" "ns/event" (per (ns "import") (c "import.events"));
    m "import.alloc_bytes_per_event" "B/event" (per (alloc "import") (c "import.events"));
    m "import.heap_growth_bytes_per_event" "B/event" (per (heap "import") (c1 "import.events"));
    m "import.kept_ratio" "ratio" (per (c "import.kept") (c "import.events"));
    m "import.anomalies" "count" (per (c "import.anomalies") (calls "import"));
    m "fold.ns_per_access" "ns/access" (per (ns "fold") (c "import.kept"));
    m "fold.alloc_bytes_per_access" "B/access" (per (alloc "fold") (c "import.kept"));
    m "fold.observations" "count" (per (c "fold.observations") (calls "fold"));
    m "derive.ns_per_observation" "ns/obs" (per (ns "derive") (c "fold.observations"));
    m "derive.groups" "count" (per (c "derive.groups") (calls "derive"));
    m "derive.hypotheses_per_group" "count" (per (c "derive.hypotheses") (c "derive.groups"));
    m "derive.cpu_util" "ratio" (util "derive");
    m "check.ns_per_spec" "ns/spec" (per (ns "check") (c "check.specs"));
    m "check.cpu_util" "ratio" (util "check");
    m "violations.ns_per_group" "ns/group" (per (ns "violations") (c "violations.groups"));
    m "violations.found" "count" (per (c "violations.found") (calls "violations"));
    m "online.feed_ns_per_event" "ns/event" (per (ns "feed") (c "feed.events"));
    m "online.feed_alloc_bytes_per_event" "B/event" (per (alloc "feed") (c "feed.events"));
    m "online.heap_growth_bytes_per_event" "B/event" (per (heap "feed") (c1 "feed.events"));
    m "online.freeze_cpu_util" "ratio" (util "freeze");
    m "static.summary_ms" "ms" (per (ms "summary") (calls "summary"));
    m "static.explain_ns_per_event" "ns/event" (per (ns "explain") (c "explain.events"));
    m "static.lint_ms" "ms" (per (ms "lint") (calls "lint"));
    m "static.cpu_util" "ratio" (util "lint");
    m "gc.major_collections" "count"
      (per (get (fun a -> n a.s_major_collections) "request") (calls "request"));
    m "gc.promoted_ratio" "ratio"
      (per (get (fun a -> a.s_promoted_words) "request") (get (fun a -> a.s_minor_words) "request"));
    m "tracing.latency_p50_ms" "ms" p50_ms;
    m "tracing.span_cost_frac" "ratio" (per t.overhead request_wall);
    m "host.steal_frac" "ratio" steal_frac;
  ]
