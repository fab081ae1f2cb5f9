(* Self-tests for the benchmark's own helpers: the tail-percentile rule,
   the output gate, the steal correction, and the names of every metric
   the benchmark emits. *)

module H = Harness

let check name ok =
  if not ok then begin
    Printf.eprintf "FAIL: %s\n" name;
    exit 1
  end

let samples k = List.init k (fun i -> float_of_int (i + 1))

let () =
  (* p90 of 1..k has k/10 samples above it: reported from 100 samples on,
     omitted below. *)
  check "p90 omitted with 9 samples above" (H.tail_percentile 90. (samples 99) = None);
  check "p90 reported with 10 samples above" (H.tail_percentile 90. (samples 100) = Some 90.);
  check "p99 omitted with 1 sample above"
    (H.tail_percentile 99. (samples 100) = None);
  check "no samples, no percentile" (H.tail_percentile 50. [] = None);
  (* Ties at the percentile are not "above" it. *)
  check "ties are not above"
    (H.tail_percentile 50. (List.init 40 (fun _ -> 1.) @ List.init 9 (fun _ -> 2.)) = None);
  check "median of even count" (H.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "median of odd count" (H.median [ 3.; 1.; 2. ] = 2.)

let () =
  let d = H.digest_hex "rules" in
  let perturbed =
    String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) d
  in
  let gate = { H.expected = Some d; cross = [ d ] } in
  check "matching digest passes" (H.passes gate d);
  check "perturbed digest fails" (not (H.passes gate perturbed));
  check "perturbed expected digest fails"
    (not (H.passes { gate with H.expected = Some perturbed } d));
  check "cross-path disagreement fails"
    (not (H.passes { H.expected = None; cross = [ d; perturbed ] } d));
  check "non-default seed: cross paths alone" (H.passes { H.expected = None; cross = [ d ] } d);
  check "missing expected digest fails" (not (H.passes { gate with H.expected = Some "missing" } d))

let () =
  (* Steal over one busy vCPU is all lost; over two busy vCPUs, half. *)
  let c0 = { H.c_wall = 0.; c_cpu = 0.; c_steal = 0. } in
  let at ?(wall = 1.) ~cpu ~steal () = { H.c_wall = wall; c_cpu = cpu; c_steal = steal } in
  let close a b = Float.abs (a -. b) < 1e-9 in
  check "no steal, plain wall" (H.unstolen c0 (at ~cpu:1. ~steal:0. ()) = 1.);
  check "one busy vCPU loses all steal" (close (H.unstolen c0 (at ~cpu:0.8 ~steal:0.2 ())) 0.8);
  check "two busy vCPUs lose half" (close (H.unstolen c0 (at ~cpu:1.6 ~steal:0.4 ())) 0.8);
  check "two busy vCPUs, half of each stolen"
    (close (H.unstolen c0 (at ~wall:2. ~cpu:2. ~steal:2. ())) 1.);
  check "an idle process loses no more than the steal"
    (close (H.unstolen c0 (at ~cpu:0.1 ~steal:0.2 ())) 0.8);
  (* Parts share the stretch's unstolen fraction and sum to its time. *)
  let ps = H.parts c0 (at ~wall:2. ~cpu:1.6 ~steal:0.4 ()) ~laps:[ 0.5; 1.5 ] in
  check "parts are cut at the laps" (List.length ps = 3);
  check "parts sum to the unstolen time" (close (List.fold_left ( +. ) 0. ps) 1.6);
  check "each part scaled alike" (close (List.nth ps 1) 0.8)

let () =
  (* Per-part medians outvote a burst in one round that the median of
     round totals would let through. *)
  let rounds = [ [ 1.; 1.; 9. ]; [ 9.; 1.; 1. ]; [ 1.; 1.; 1. ] ] in
  check "median_round takes each part's median" (H.median_round rounds = 3.);
  check "median of round totals is moved" (H.median [ 11.; 11.; 3. ] = 11.);
  check "single-part rounds: median round time" (H.median_round [ [ 2. ]; [ 5. ]; [ 3. ] ] = 3.);
  check "a round cut short still counts"
    (H.median_round [ [ 1.; 2. ]; [ 1. ]; [ 1.; 4. ] ] = 4.);
  check "position medians" (H.position_medians rounds = [ 1.; 1.; 1. ])

let () =
  let t = H.tracer true in
  ignore (H.span t "import" (fun () -> List.init 1000 Fun.id));
  let emitted =
    H.setup_metrics ~setup_s:1.
    @ H.ksim_metrics ~ns_per_event:1. ~alloc_bytes_per_event:1.
    @ H.end_to_end_metrics ~p50_ms:1. ~throughput_eps:1. ~peak_rss_mb:1.
    @ H.layer_metrics t ~jobs:2 ~p50_ms:1. ~request_wall:1. ~steal_frac:0.
  in
  let re = Str.regexp "^[A-Za-z0-9_.-]+$" in
  List.iter
    (fun (m : H.metric) ->
      check ("metric name " ^ m.H.name) (Str.string_match re m.H.name 0);
      check ("finite value " ^ m.H.name) (Float.is_finite m.H.value))
    emitted;
  let names = List.map (fun (m : H.metric) -> m.H.name) emitted in
  check "metric names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  check "bad names are refused"
    (match H.metric "p50 ms" "ms" 1. with _ -> false | exception Invalid_argument _ -> true);
  print_endline "perfbench harness: ok"
