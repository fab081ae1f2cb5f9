(* The LockDoc benchmark: trace file -> rules, over four workloads.

   Two subcommands, each run in its own process by perfbench/run.py:

     ldbench setup   -w W [--seed N] --dir D --repeat K [--trace]
       Generates W's inputs with ksim and writes them under D (a text
       trace or LDOCBIN1 files), K times over. Prints one JSON line with
       the median set-up time and, traced, ksim's per-event cost.

     ldbench measure -w W [--seed N] --dir D --seconds S --expected F [--trace]
       Reads only the files under D, runs W's requests in a closed loop
       (one client, each request starts when the previous one ends) for S
       seconds, then recomputes every output along a second path and
       checks the requests against it and, at W's default seed, against
       the digests committed in F. Prints one JSON line of results.

   Every call into the library below is one of its public functions; the
   spans around them live here, not in lib/. Analysis uses [jobs] = 2
   domains, the size of the reference machine. *)

module H = Harness
module Trace = Lockdoc_trace.Trace
module Codec = Lockdoc_stream.Codec
module Online = Lockdoc_stream.Online
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Checker = Lockdoc_core.Checker
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Rule = Lockdoc_core.Rule
module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel
module Doc = Lockdoc_ksim.Documentation
module Lint = Lockdoc_static.Lint
module Summary = Lockdoc_static.Summary
module Explain = Lockdoc_static.Explain

let jobs = 2

type workload = Mix_text | Families_bin | Mix_stream | Lint_families

let workloads =
  [
    ("mix-text", Mix_text); ("families-bin", Families_bin);
    ("mix-stream", Mix_stream); ("lint", Lint_families);
  ]

(* The seeds the CLI and the older perf executables default to. *)
let default_seed = function
  | Mix_text | Mix_stream -> 42
  | Families_bin -> 11
  | Lint_families -> 7

(* {1 Set-up: seed in, files out} *)

let mix_trace ~scale seed =
  fst
    (Run.benchmark_mix
       ~config:
         { Run.kernel = { Kernel.default_config with Kernel.seed }; scale;
           faults = true }
       ())

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let family_file dir fam = Filename.concat dir (fam ^ ".ldb")
let mix_text_file dir = Filename.concat dir "mix.trace"
let mix_bin_file dir = Filename.concat dir "mix.ldb"

(* Set-up runs [repeat] times in one process and reports the median: the
   first run also pays for growing a fresh heap, whose page faults cost
   twice as much at some times as at others on a shared host. *)
let setup w ~seed ~dir ~repeat ~tracing =
  let tr = H.tracer tracing in
  let events = ref 0 in
  let gen f =
    let t = H.span tr "ksim" f in
    events := !events + Array.length t.Trace.events;
    t
  in
  let once ~last =
    let c0 = H.clock () in
    match w with
    | Mix_text ->
        let t = gen (fun () -> mix_trace ~scale:32 seed) in
        Trace.save (mix_text_file dir) t;
        let dt = H.unstolen c0 (H.clock ()) in
        (* The LDOCBIN1 copy is only read by the gate's cross path, so it
           is written once, outside the set-up time. *)
        if last then write_file (mix_bin_file dir) (Codec.encode_trace t);
        dt
    | Mix_stream ->
        write_file (mix_bin_file dir)
          (Codec.encode_trace (gen (fun () -> mix_trace ~scale:8 seed)));
        H.unstolen c0 (H.clock ())
    | Families_bin | Lint_families ->
        List.iter
          (fun fam ->
            write_file (family_file dir fam)
              (Codec.encode_trace (gen (fun () -> Run.workload_trace ~seed ~scale:1 fam))))
          Run.workload_names;
        H.unstolen c0 (H.clock ())
  in
  let setup_s = H.median (List.init repeat (fun i -> once ~last:(i = repeat - 1))) in
  let per_event f = match H.find tr "ksim" with Some a -> f a /. float_of_int !events | None -> 0. in
  let layers =
    if tracing then
      H.ksim_metrics
        ~ns_per_event:(per_event (fun a -> a.H.s_wall *. 1e9))
        ~alloc_bytes_per_event:(per_event (fun a -> a.H.s_alloc_bytes))
    else []
  in
  Printf.printf "{\"metrics\": %s, \"layers\": %s}\n"
    (H.metrics_json (H.setup_metrics ~setup_s))
    (H.metrics_json layers)

(* {1 The pipeline} *)

(* The documented-rule specs, built exactly as [lockdoc check] builds
   them. *)
let doc_specs =
  List.map
    (fun (dr : Doc.doc_rule) ->
      {
        Checker.sp_type = dr.Doc.d_type;
        sp_member = dr.Doc.d_member;
        sp_kind = (match dr.Doc.d_access with Doc.R -> Rule.R | Doc.W -> Rule.W);
        sp_rule = Rule.parse dr.Doc.d_rule;
      })
    Doc.rules

let n f = float_of_int f
let rendered parts = H.digest_hex (String.concat "\n" parts)

(* A span that also ends a part of the request's time (see
   [Harness.median_round]). *)
let stage tr name f =
  let r = H.span tr name f in
  H.lap tr;
  r

(* Import -> fold -> derive -> check -> violations, as [lockdoc profile]
   runs them. Returns the output's digest as a thunk, so rendering stays
   outside the request's time. *)
let pipeline tr ~jobs trace =
  let store, stats = stage tr "import" (fun () -> Import.run trace) in
  H.count tr "import.events" (fun () -> n stats.Import.total_events);
  H.count tr "import.kept" (fun () -> n stats.Import.accesses_kept);
  H.count tr "import.anomalies" (fun () -> n (Import.anomaly_total stats));
  let dataset = stage tr "fold" (fun () -> Dataset.of_store store) in
  H.count tr "fold.observations" (fun () ->
      n
        (List.fold_left
           (fun acc k -> acc + List.length (Dataset.observations dataset k))
           0 (Dataset.type_keys dataset)));
  let mined = stage tr "derive" (fun () -> Derivator.derive_all ~jobs dataset) in
  H.count tr "derive.groups" (fun () -> n (List.length mined));
  H.count tr "derive.hypotheses" (fun () ->
      n (List.fold_left (fun acc m -> acc + List.length m.Derivator.m_hypotheses) 0 mined));
  let checked = stage tr "check" (fun () -> Checker.check_many ~jobs dataset doc_specs) in
  H.count tr "check.specs" (fun () -> n (List.length doc_specs));
  let violations = stage tr "violations" (fun () -> Violation.find ~jobs dataset mined) in
  H.count tr "violations.groups" (fun () -> n (List.length mined));
  H.count tr "violations.found" (fun () -> n (List.length violations));
  fun () ->
    rendered
      [
        Report.mined_to_json mined; Report.checked_to_json checked;
        Report.violations_to_json violations;
      ]

let decode tr bytes =
  let trace, _ = stage tr "decode" (fun () -> Codec.decode_string bytes) in
  H.count tr "decode.events" (fun () -> n (Array.length trace.Trace.events));
  H.count tr "decode.bytes" (fun () -> n (String.length bytes));
  trace

let parse tr path =
  let trace, _ = stage tr "parse" (fun () -> Trace.read path) in
  H.count tr "parse.events" (fun () -> n (Array.length trace.Trace.events));
  H.count tr "parse.bytes" (fun () -> n (Unix.stat path).Unix.st_size);
  trace

let lint_digest report = H.digest_hex (Report.to_string (Lint.to_json report))

(* {1 Requests} *)

(* One unit of gated work: a request, or for mix-stream a pass of 100
   requests whose output is the last freeze. Each output item maps to
   its digest, [None] if it raised; unless every item passes the gate,
   every request in the unit counts as failed. *)
type outcome = {
  digests : (string * string option) list;
  latencies : float list;  (** seconds less the time stolen, one per request *)
  parts : float list;
      (** the unit's time cut into parts at its stage boundaries, seconds
          less the time stolen, in order: per input, each stage of a
          request; for a pass, its decode and then each of its requests *)
  events : int;
  wall : float;  (** seconds in which the events were processed, less the time stolen *)
  stolen : float;  (** seconds stolen from [wall] *)
}

let guard item f =
  try Some (f ())
  with e ->
    Printf.eprintf "ldbench: %s raised %s\n%!" item (Printexc.to_string e);
    None

(* One request over every input in turn: [f] does one input's timed work
   and returns its event count and an untimed tail that renders the
   output (and, traced, takes extra layer measurements) into a digest.

   families-bin and lint requests sweep all six families: the median of
   per-family times would fall in the gap between two families' times
   and swing with noise, while a sweep's time is one steady number. *)
let request tr inputs f =
  ignore (H.take_laps tr);
  let c0 = H.clock () in
  let results =
    H.span tr "request" (fun () ->
        List.map (fun (item, input) -> (item, guard item (fun () -> f item input))) inputs)
  in
  let c1 = H.clock () in
  let wall = H.unstolen c0 c1 in
  let parts = H.parts c0 c1 ~laps:(H.take_laps tr) in
  let events = List.fold_left (fun acc (_, r) -> acc + Option.fold ~none:0 ~some:fst r) 0 results in
  let digests =
    List.map (fun (item, r) -> (item, Option.bind r (fun (_, tail) -> guard item tail))) results
  in
  { digests; latencies = [ wall ]; parts; events; wall; stolen = c1.H.c_wall -. c0.H.c_wall -. wall }

(* mix-stream: decode, then feed the events one at a time, freezing the
   rules every n/100 events. A request is one feed chunk plus its freeze;
   the last also finds the violations. The pass's wall time, decode
   included, is the time its events are processed in. Steal is taken out
   of the pass as a whole: /proc/stat counts it in 10 ms ticks, too
   coarse for one request. The pass's parts are its decode, each request
   (the first also creates the online state) and a negligible tail; the
   requests' parts are their latencies. *)
let stream_pass tr bytes =
  ignore (H.take_laps tr);
  let c0 = H.clock () in
  let events = ref 0 and final = ref None in
  let ok =
    guard "mix" (fun () ->
        let trace = decode tr bytes in
        let ev = trace.Trace.events in
        events := Array.length ev;
        let chunk = max 1 ((!events + 99) / 100) in
        let online = Online.create trace.Trace.layouts in
        let lo = ref 0 in
        while !lo < !events do
          let hi = min !events (!lo + chunk) in
          H.span tr "request" (fun () ->
              H.span tr "feed" (fun () ->
                  for j = !lo to hi - 1 do Online.feed online ev.(j) done);
              H.count tr "feed.events" (fun () -> n (hi - !lo));
              let dataset, mined =
                H.span tr "freeze" (fun () -> Online.freeze ~jobs online)
              in
              if hi = !events then begin
                let v = H.span tr "violations" (fun () -> Violation.find dataset mined) in
                H.count tr "violations.groups" (fun () -> n (List.length mined));
                H.count tr "violations.found" (fun () -> n (List.length v));
                final := Some (mined, v)
              end);
          H.lap tr;
          lo := hi
        done)
  in
  let c1 = H.clock () in
  let f = H.unstolen_fraction c0 c1 in
  let wall = c1.H.c_wall -. c0.H.c_wall in
  let parts = H.parts c0 c1 ~laps:(H.take_laps tr) in
  let digest =
    match (ok, !final) with
    | Some (), Some (mined, v) ->
        Some (rendered [ Report.mined_to_json mined; Report.violations_to_json v ])
    | _ -> None
  in
  {
    digests = [ ("mix", digest) ];
    latencies = List.filteri (fun i _ -> i > 0 && i < List.length parts - 1) parts;
    parts;
    events = !events;
    wall = wall *. f;
    stolen = wall *. (1. -. f);
  }

let run_round w tr inputs =
  match w with
  | Mix_text ->
      request tr inputs (fun _ path ->
          let trace = parse tr path in
          (Array.length trace.Trace.events, pipeline tr ~jobs trace))
  | Families_bin ->
      request tr inputs (fun _ bytes ->
          let trace = decode tr bytes in
          (Array.length trace.Trace.events, pipeline tr ~jobs trace))
  | Mix_stream -> stream_pass tr (snd (List.hd inputs))
  | Lint_families ->
      (* Lint.run calls Summary.analyse internally; timing it (and the
         Explain meta-check, which lint does not run) from outside takes
         separate calls, made only when tracing and outside the requests. *)
      if tr.H.tracing then ignore (H.span tr "summary" (fun () -> Summary.analyse ~jobs ()));
      request tr inputs (fun item bytes ->
          let trace = decode tr bytes in
          let report = stage tr "lint" (fun () -> Lint.run ~jobs ~workload:item trace) in
          ( Array.length trace.Trace.events,
            fun () ->
              if tr.H.tracing then begin
                ignore (H.span tr "explain" (fun () -> Explain.check trace));
                H.count tr "explain.events" (fun () -> n (Array.length trace.Trace.events))
              end;
              lint_digest report ))

(* The second path each output is recomputed along, untimed: for the text
   workload, the LDOCBIN1 copy set-up wrote of the same trace, at jobs 1;
   text at jobs 1 for the binary families; batch derivation for the
   online stream; and jobs 1 for lint. *)
let cross w item input =
  let quiet = H.tracer false in
  match w with
  | Mix_text ->
      let bin = read_file (mix_bin_file (Filename.dirname input)) in
      pipeline quiet ~jobs:1 (fst (Codec.decode_string bin)) ()
  | Families_bin ->
      let text = Trace.to_lines (fst (Codec.decode_string input)) in
      pipeline quiet ~jobs:1 (fst (Trace.read_lines text)) ()
  | Mix_stream ->
      let store, _ = Import.run (fst (Codec.decode_string input)) in
      let dataset = Dataset.of_store store in
      let mined = Derivator.derive_all ~jobs:1 dataset in
      rendered
        [ Report.mined_to_json mined;
          Report.violations_to_json (Violation.find ~jobs:1 dataset mined) ]
  | Lint_families ->
      lint_digest (Lint.run ~jobs:1 ~workload:item (fst (Codec.decode_string input)))

(* {1 The measured run} *)

let measure w ~seed ~dir ~seconds ~expected ~tracing =
  let tr = H.tracer tracing in
  (* Only the bytes set-up wrote reach the requests: mix-text parses its
     file in every request, the others decode an LDOCBIN1 string. *)
  let inputs =
    match w with
    | Mix_text -> [ ("mix", mix_text_file dir) ]
    | Mix_stream -> [ ("mix", read_file (mix_bin_file dir)) ]
    | Families_bin | Lint_families ->
        List.map (fun fam -> (fam, read_file (family_file dir fam))) Run.workload_names
  in
  ignore (H.reset_peak_rss ());
  let t0 = H.now () in
  let outcomes = ref [] and rounds = ref 0 in
  while !rounds = 0 || H.now () -. t0 < seconds do
    outcomes := run_round w tr inputs :: !outcomes;
    H.end_first_round tr;
    incr rounds
  done;
  let peak_rss_mb = H.peak_rss_mb () in
  let outcomes = List.rev !outcomes in
  let expected =
    if seed <> default_seed w then fun _ -> None
    else
      let table = H.read_expected expected in
      fun item -> Some (Option.value ~default:"missing" (List.assoc_opt item table))
  in
  let gates =
    List.map
      (fun (item, input) ->
        let d = Option.value ~default:"raised" (guard item (fun () -> cross w item input)) in
        Printf.eprintf "%s: digest %s\n%!" item d;
        (item, { H.expected = expected item; cross = [ d ] }))
      inputs
  in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun o ->
      let k = max 1 (List.length o.latencies) in
      attempted := !attempted + k;
      let ok =
        List.for_all
          (fun (item, d) ->
            match d with Some d -> H.passes (List.assoc item gates) d | None -> false)
          o.digests
      in
      if not ok then failed := !failed + k)
    outcomes;
  let latencies = List.concat_map (fun o -> o.latencies) outcomes in
  let ms s = s *. 1e3 in
  (* A mix-stream pass holds 100 requests: each one's latency is first
     taken as its median over the passes, as for throughput. *)
  let p50_ms = ms (H.median (H.position_medians (List.map (fun o -> o.latencies) outcomes))) in
  let p90 = Option.map ms (H.tail_percentile 90. latencies) in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. outcomes in
  let request_wall = sum (fun o -> o.wall) in
  let steal_frac = sum (fun o -> o.stolen) /. (request_wall +. sum (fun o -> o.stolen)) in
  let metrics =
    H.end_to_end_metrics ~p50_ms
      ~throughput_eps:
        (n (List.hd outcomes).events /. H.median_round (List.map (fun o -> o.parts) outcomes))
      ~peak_rss_mb
  in
  let layers = if tracing then H.layer_metrics tr ~jobs ~p50_ms ~request_wall ~steal_frac else [] in
  Printf.printf
    "{\"attempted\": %d, \"failed\": %d, \"samples\": %d, \"latency_p90_ms\": %s, \
     \"steal_frac\": %s, \"metrics\": %s, \"layers\": %s}\n"
    !attempted !failed (List.length latencies)
    (match p90 with Some v -> H.json_number v | None -> "null")
    (H.json_number steal_frac) (H.metrics_json metrics) (H.metrics_json layers)

(* {1 Command line}

   perfbench/run.py passes every argument but --seed, so the default
   seeds are the only defaults here. *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref None and dir = ref "" in
  let seconds = ref None and expected = ref None and repeat = ref None in
  let tracing = ref false in
  let spec =
    [
      ("-w", Arg.Set_string workload, "WORKLOAD one of mix-text, families-bin, mix-stream, lint");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: per workload)");
      ("--dir", Arg.Set_string dir, "DIR where set-up writes and measure reads the inputs");
      ("--seconds", Arg.Float (fun v -> seconds := Some v), "S measured phase length (measure)");
      ("--expected", Arg.String (fun v -> expected := Some v), "FILE digests at the default seed (measure)");
      ("--repeat", Arg.Int (fun v -> repeat := Some v), "K set-up runs to take the median of (setup)");
      ("--trace", Arg.Set tracing, " record per-layer spans");
    ]
  in
  let usage = "ldbench (setup|measure) -w WORKLOAD --dir DIR [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  let required name = function Some v -> v | None -> raise (Arg.Bad (name ^ " is required")) in
  if !dir = "" then raise (Arg.Bad "--dir is required");
  let seed = Option.value ~default:(default_seed w) !seed in
  match cmd with
  | "setup" ->
      let repeat = required "--repeat" !repeat in
      if repeat < 1 then raise (Arg.Bad "--repeat must be at least 1");
      setup w ~seed ~dir:!dir ~repeat ~tracing:!tracing
  | "measure" ->
      measure w ~seed ~dir:!dir ~seconds:(required "--seconds" !seconds)
        ~expected:(required "--expected" !expected) ~tracing:!tracing
  | _ -> raise (Arg.Bad usage)
