(* Counterexample-replay suite: structured scheduler halts, controller
   units, witness JSON round-trips, and the seeded/clean replay
   acceptance matrix over every workload family.

   [LOCKDOC_REPLAY_FAMILIES] (default 2 under `dune runtest`) bounds how
   many families the matrix covers; the @replay alias runs all six. *)

module Kernel = Lockdoc_ksim.Kernel
module Run = Lockdoc_ksim.Run
module Seeded = Lockdoc_ksim.Seeded
module Replay = Lockdoc_sanitizer.Replay
module Crossval = Lockdoc_sanitizer.Crossval
module Json = Lockdoc_obs.Json
module Srcloc = Lockdoc_trace.Srcloc

let families () =
  let n =
    match Sys.getenv_opt "LOCKDOC_REPLAY_FAMILIES" with
    | Some s -> ( try int_of_string s with _ -> 2)
    | None -> 2
  in
  List.filteri (fun i _ -> i < n) Run.workload_names

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* {2 Structured halt diagnostics} *)

let test_budget_halt () =
  let config =
    {
      Kernel.default_config with
      hardirq_rate = 0.;
      softirq_rate = 0.;
      max_steps = 200;
    }
  in
  match
    Kernel.run ~config ~layouts:[] (fun () ->
        Kernel.spawn "spin-a" (fun () ->
            while true do
              Kernel.preempt_point ()
            done);
        Kernel.spawn "spin-b" (fun () ->
            while true do
              Kernel.preempt_point ()
            done))
  with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Kernel.Stuck h ->
      Alcotest.(check bool) "not a deadlock" false h.Kernel.h_deadlock;
      Alcotest.(check int) "budget recorded" 200 h.Kernel.h_budget;
      Alcotest.(check bool) "steps beyond budget" true (h.Kernel.h_steps > 200);
      let runnable =
        List.filter
          (fun f -> f.Kernel.fl_state = Kernel.Fl_runnable)
          h.Kernel.h_flows
      in
      Alcotest.(check int) "both spinners still runnable" 2
        (List.length runnable);
      let msg = Kernel.describe_halt h in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " listed in description")
            true (contains ~sub:name msg))
        [ "spin-a"; "spin-b" ]

let test_deadlock_halt () =
  let config =
    { Kernel.default_config with hardirq_rate = 0.; softirq_rate = 0. }
  in
  match
    Kernel.run ~config ~layouts:[] (fun () ->
        Kernel.spawn "waiter-1" (fun () ->
            Kernel.wait_until "first impossible condition" (fun () -> false));
        Kernel.spawn "waiter-2" (fun () ->
            Kernel.wait_until "second impossible condition" (fun () -> false)))
  with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Kernel.Deadlock h ->
      Alcotest.(check bool) "flagged as deadlock" true h.Kernel.h_deadlock;
      let blocked =
        List.filter_map
          (fun f ->
            match f.Kernel.fl_state with
            | Kernel.Fl_blocked reason -> Some (f.Kernel.fl_name, reason)
            | _ -> None)
          h.Kernel.h_flows
      in
      Alcotest.(check int) "both waiters blocked" 2 (List.length blocked);
      Alcotest.(check (option string))
        "wait reason carried"
        (Some "first impossible condition")
        (List.assoc_opt "waiter-1" blocked);
      Alcotest.(check bool) "description carries the wait reason" true
        (contains ~sub:"second impossible condition"
           (Kernel.describe_halt h))

(* {2 Controller units} *)

(* A breakpoint on an access that never executes: the search terminates
   normally, explores zero schedules and refutes with budget
   exhaustion. *)
let test_never_executed_breakpoint () =
  let target =
    Replay.Race_target { rt_type = "no_such_type"; rt_member = "ghost" }
  in
  let out, total =
    Replay.search ~seed:11 ~bugs:false ~workload:"fs_inod" [ target ]
  in
  Alcotest.(check int) "no directed schedules spent" 0 total;
  match out with
  | [ (t, Replay.Refuted Replay.Budget_exhausted, 0) ] ->
      Alcotest.(check string) "target id" "no_such_type.ghost"
        (Replay.target_id t)
  | _ -> Alcotest.fail "expected a single budget-exhausted refutation"

(* preempt_now must refuse to yield inside spin critical sections and in
   irq context, and succeed elsewhere. *)
let test_forced_switch_respects_atomicity () =
  let refused = ref 0 and allowed = ref 0 in
  let control =
    {
      Kernel.ctl_on_access =
        (fun v ->
          if v.Kernel.av_preempt_off || v.Kernel.av_in_irq then begin
            if Kernel.preempt_now () then
              Alcotest.fail "preempt_now yielded in an atomic section"
            else incr refused
          end
          else if !allowed < 5 && Kernel.preempt_now () then incr allowed);
      ctl_on_event = (fun _ -> ());
      ctl_pick = (fun _ -> None);
    }
  in
  ignore (Run.replay_trace ~seed:13 ~control ~bugs:false "fs_bench");
  Alcotest.(check bool) "saw atomic-section accesses" true (!refused > 0);
  Alcotest.(check bool) "forced switches happened elsewhere" true (!allowed > 0)

(* {2 Witness JSON round-trip} *)

let sample_verdicts =
  [
    Replay.Confirmed
      [
        {
          Replay.st_pid = 3;
          st_flow = "fs-bench";
          st_action = "about to write super_block.s_dirt";
          st_loc = Srcloc.make "fs/inode.c" 507;
          st_held = [];
        };
        {
          Replay.st_pid = 5;
          st_flow = "fs_bench-replay-a";
          st_action = "writes super_block.s_dirt with no common lock held";
          st_loc = Srcloc.make "fs/inode.c" 509;
          st_held = [ "super_block.s_umount" ];
        };
      ];
    Replay.Refuted (Replay.Caller_holds_lock "inode.i_lock");
    Replay.Refuted Replay.Rcu_read_section;
    Replay.Refuted Replay.Quiescent_init_teardown;
    Replay.Refuted Replay.Budget_exhausted;
  ]

let test_witness_roundtrip () =
  List.iter
    (fun v ->
      let j = Replay.verdict_to_json v in
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
      | Ok j' ->
          Alcotest.(check bool) "json round-trips structurally" true
            (Json.equal j j');
          (match Replay.verdict_of_json j' with
          | Error e -> Alcotest.fail ("verdict_of_json failed: " ^ e)
          | Ok v' ->
              Alcotest.(check bool) "verdict round-trips exactly" true (v = v')))
    sample_verdicts

let test_verdict_of_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> Alcotest.fail "test input must parse as json"
      | Ok j -> (
          match Replay.verdict_of_json j with
          | Ok _ -> Alcotest.fail ("accepted malformed verdict: " ^ s)
          | Error _ -> ()))
    [
      {|{"status":"confirmed"}|};
      {|{"status":"refuted","why":{"kind":"caller_holds_lock"}}|};
      {|{"status":"maybe"}|};
      {|{"status":"refuted","why":{"kind":"gremlins"}}|};
    ]

(* {2 Seeded / clean acceptance matrix} *)

let confirmed_ids (r : Replay.report) =
  List.filter_map
    (fun (o : Replay.outcome) ->
      match o.Replay.o_verdict with
      | Replay.Confirmed _ -> Some (Replay.target_id o.Replay.o_target)
      | Replay.Refuted _ -> None)
    r.Replay.r_outcomes

let test_seeded_family workload () =
  let r = Replay.run ~seed:7 ~bugs:true workload in
  Alcotest.(check (float 1e-9))
    "post-triage race precision" 1.0
    r.Replay.r_races_post.Crossval.cv_precision;
  Alcotest.(check (float 1e-9))
    "post-triage race recall" 1.0 r.Replay.r_races_post.Crossval.cv_recall;
  Alcotest.(check (float 1e-9))
    "post-triage irq precision" 1.0 r.Replay.r_irq_post.Crossval.cv_precision;
  Alcotest.(check (float 1e-9))
    "post-triage irq recall" 1.0 r.Replay.r_irq_post.Crossval.cv_recall;
  Alcotest.(check int)
    "triage loses no true positive"
    (r.Replay.r_races_pre.Crossval.cv_tp + r.Replay.r_irq_pre.Crossval.cv_tp)
    (r.Replay.r_races_post.Crossval.cv_tp + r.Replay.r_irq_post.Crossval.cv_tp);
  List.iter
    (fun (o : Replay.outcome) ->
      match o.Replay.o_verdict with
      | Replay.Confirmed steps ->
          Alcotest.(check bool) "witness has at least two steps" true
            (List.length steps >= 2);
          let pids =
            List.sort_uniq compare (List.map (fun s -> s.Replay.st_pid) steps)
          in
          Alcotest.(check bool) "witness spans two flows" true
            (List.length pids >= 2)
      | Replay.Refuted _ -> ())
    r.Replay.r_outcomes

let test_clean_family workload () =
  let r = Replay.run ~seed:7 ~bugs:false workload in
  Alcotest.(check (list string)) "clean trace: zero confirmed" []
    (confirmed_ids r)

(* Across all six families, every declared seeded site — the races and
   the irq-unsafe class — must come back Confirmed somewhere. *)
let test_union_covers_all_seeded_sites () =
  let confirmed =
    List.concat_map
      (fun w -> confirmed_ids (Replay.run ~seed:7 ~bugs:true w))
      Run.workload_names
    |> List.sort_uniq compare
  in
  let declared =
    List.sort_uniq compare
      (List.map (fun (_, (ty, m)) -> ty ^ "." ^ m) Seeded.race_sites
      @ List.map snd Seeded.irq_sites)
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (site ^ " confirmed in some family")
        true (List.mem site confirmed))
    declared

let test_jobs_identical () =
  let j1 = Replay.to_json (Replay.run ~jobs:1 ~seed:7 ~bugs:true "fs_bench") in
  let j4 = Replay.to_json (Replay.run ~jobs:4 ~seed:7 ~bugs:true "fs_bench") in
  Alcotest.(check string) "-j 4 byte-identical to -j 1" j1 j4

let () =
  let matrix name f =
    List.map
      (fun w -> Alcotest.test_case (name ^ " " ^ w) `Slow (f w))
      (families ())
  in
  Alcotest.run "replay"
    [
      ( "halts",
        [
          Alcotest.test_case "budget halt lists runnable flows" `Quick
            test_budget_halt;
          Alcotest.test_case "deadlock halt carries wait reasons" `Quick
            test_deadlock_halt;
        ] );
      ( "controller",
        [
          Alcotest.test_case "never-executed breakpoint terminates" `Quick
            test_never_executed_breakpoint;
          Alcotest.test_case "forced switch respects atomic sections" `Slow
            test_forced_switch_respects_atomicity;
        ] );
      ( "witness-json",
        [
          Alcotest.test_case "verdicts round-trip" `Quick test_witness_roundtrip;
          Alcotest.test_case "malformed verdicts rejected" `Quick
            test_verdict_of_json_rejects;
        ] );
      ("seeded", matrix "seeded" test_seeded_family);
      ("clean", matrix "clean" test_clean_family);
      ( "union",
        [
          Alcotest.test_case "all seeded sites confirmed across families"
            `Slow test_union_covers_all_seeded_sites;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j 1 vs -j 4 identical" `Slow test_jobs_identical;
        ] );
    ]
