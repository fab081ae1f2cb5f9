(* End-to-end integration tests: run the benchmark mix, import it, derive
   rules, and check the mined rules against the simulator's intended
   discipline (ground truth the paper did not have). Also exercises every
   experiment renderer. *)

module Trace = Lockdoc_trace.Trace
module Import = Lockdoc_db.Import
module Kernel = Lockdoc_ksim.Kernel
module Run = Lockdoc_ksim.Run
module Fault = Lockdoc_ksim.Fault
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Derivator = Lockdoc_core.Derivator
module Checker = Lockdoc_core.Checker
module Violation = Lockdoc_core.Violation
module Context = Lockdoc_experiments.Context
module Registry = Lockdoc_experiments.Registry

let check = Alcotest.check

(* One shared pipeline for the whole suite (scale 4 keeps it fast). *)
let ctx = lazy (Context.create ~scale:4 ~seed:42 ())

let dataset () = (Lazy.force ctx).Context.dataset

let winner_of key member kind =
  let mined =
    List.find_opt
      (fun m ->
        m.Derivator.m_type = key
        && m.Derivator.m_member = member
        && m.Derivator.m_kind = kind)
      (Lazy.force ctx).Context.mined
  in
  Option.map (fun m -> Rule.to_string m.Derivator.m_winner) mined

(* {2 Import sanity} *)

let test_import_clean () =
  let stats = (Lazy.force ctx).Context.import_stats in
  check Alcotest.int "no unresolved accesses" 0 stats.Import.unresolved;
  check Alcotest.int "no unbalanced releases" 0 stats.Import.unbalanced_releases;
  check Alcotest.bool "substantial volume" true (stats.Import.accesses_kept > 10_000)

let test_all_type_keys_present () =
  let keys = Dataset.type_keys (dataset ()) in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected keys))
    [
      "inode:ext4"; "inode:tmpfs"; "inode:proc"; "inode:pipefs"; "dentry";
      "journal_t"; "transaction_t"; "journal_head"; "buffer_head";
      "super_block"; "block_device"; "backing_dev_info"; "cdev";
      "pipe_inode_info";
    ]

(* {2 Mined rules vs simulator ground truth} *)

let check_winner key member kind expected =
  match winner_of key member kind with
  | Some got ->
      check Alcotest.string
        (Printf.sprintf "%s.%s %s" key member (Rule.access_to_string kind))
        expected got
  | None -> Alcotest.fail (Printf.sprintf "%s.%s never observed" key member)

let test_ground_truth_es_rules () =
  check_winner "inode:ext4" "i_bytes" Rule.W "ES(i_lock)";
  check_winner "inode:ext4" "i_state" Rule.W "ES(i_lock)";
  check_winner "inode:ext4" "i_uid" Rule.W "ES(i_rwsem)";
  check_winner "inode:ext4" "i_mode" Rule.W "ES(i_rwsem)"

let test_ground_truth_eo_rules () =
  (* Cross-structure rules the paper highlights in Fig. 8. *)
  check_winner "inode:ext4" "dirtied_when" Rule.W
    "EO(wb.list_lock in backing_dev_info)";
  check_winner "inode:ext4" "i_data.writeback_index" Rule.W
    "EO(s_umount in super_block)";
  (* journal_head linkage under the journal's list lock. *)
  check_winner "journal_head" "b_tnext" Rule.W "EO(j_list_lock in journal_t)";
  (* journal_head payload under the owning buffer_head's state lock. *)
  check_winner "journal_head" "b_transaction" Rule.W
    "EO(b_state_lock in buffer_head)"

let test_ground_truth_global_rules () =
  check_winner "journal_t" "j_running_transaction" Rule.W "ES(j_state_lock)";
  check_winner "cdev" "dev" Rule.W "cdev_lock";
  check_winner "pipe_inode_info" "nrbufs" Rule.W "ES(mutex)"

let test_lockless_members () =
  (* Members that really need no locks end up with the no-lock rule. *)
  check_winner "inode:ext4" "i_atime" Rule.W "nolock";
  check_winner "inode:proc" "i_private" Rule.W "nolock"

let test_subclass_divergence () =
  (* proc reads i_size lock-free while disk filesystems use the seq
     section; the derivation keys must be able to diverge. *)
  let keys = Dataset.type_keys (dataset ()) in
  check Alcotest.bool "proc separate from ext4" true
    (List.mem "inode:proc" keys && List.mem "inode:ext4" keys)

(* {2 Documented-rule checking} *)

let test_checker_finds_doc_bugs () =
  let d = dataset () in
  let size_w =
    Checker.check_rule d ~ty:"inode" ~member:"i_size" ~kind:Rule.W
      (Rule.parse "ES(i_lock)")
  in
  check Alcotest.string "documented i_size rule is wrong" "incorrect"
    (Checker.verdict_to_string size_w.Checker.c_verdict);
  let bytes_w =
    Checker.check_rule d ~ty:"inode" ~member:"i_bytes" ~kind:Rule.W
      (Rule.parse "ES(i_lock)")
  in
  check Alcotest.string "documented i_bytes rule holds" "correct"
    (Checker.verdict_to_string bytes_w.Checker.c_verdict)

(* {2 Violations} *)

let test_violations_found () =
  let c = Lazy.force ctx in
  let violations = Violation.find c.Context.dataset c.Context.mined in
  check Alcotest.bool "violations exist" true (List.length violations > 0);
  (* The __remove_inode_hash neighbour writes surface as i_hash
     violations on some inode subclass. *)
  check Alcotest.bool "i_hash violation found" true
    (List.exists (fun v -> v.Violation.v_member = "i_hash") violations);
  (* The deliberately clean subsystem stays clean. *)
  let cdev = Violation.summarise violations "cdev" in
  check Alcotest.int "cdev has no violations" 0 cdev.Violation.vs_events

let test_confirmed_bug_found () =
  (* The inode_set_flags path (paper Fig. 3, confirmed by kernel
     developers): with fault injection on, i_flags write violations exist
     and point at inode_set_flags. *)
  let c = Lazy.force ctx in
  let violations = Violation.find c.Context.dataset c.Context.mined in
  let flags =
    List.filter
      (fun v -> v.Violation.v_member = "i_flags" && v.Violation.v_kind = Rule.W)
      violations
  in
  check Alcotest.bool "i_flags violations found" true (List.length flags > 0);
  check Alcotest.bool "blamed on inode_set_flags" true
    (List.exists
       (fun v -> List.mem "inode_set_flags" v.Violation.v_stack)
       flags)

let test_faults_off_clean_blocks () =
  (* Without fault injection the ext4 i_blocks discipline is perfect. *)
  let config =
    { Run.kernel = { Kernel.default_config with Kernel.seed = 42 };
      Run.scale = 2; Run.faults = false }
  in
  let trace, _ = Run.benchmark_mix ~config () in
  let store, _ = Import.run trace in
  let d = Dataset.of_store store in
  let mined = Derivator.derive_member d "inode:ext4" ~member:"i_blocks" ~kind:Rule.W in
  check Alcotest.string "i_blocks winner" "ES(i_lock)"
    (Rule.to_string mined.Derivator.m_winner);
  check (Alcotest.float 1e-9) "perfect support" 1.0
    mined.Derivator.m_support.Lockdoc_core.Hypothesis.sr

(* {2 Fig. 7 property} *)

let test_nolock_fraction_monotone () =
  (* Raising tac can only move winners towards "no lock". *)
  let c = Lazy.force ctx in
  let mined =
    List.filter (fun m -> m.Derivator.m_type = "dentry") c.Context.mined
  in
  let frac tac =
    let nolock =
      List.filter
        (fun m ->
          let w = Lockdoc_core.Selection.select ~tac m.Derivator.m_hypotheses in
          Rule.equal w.Lockdoc_core.Hypothesis.rule Rule.no_lock)
        mined
    in
    List.length nolock
  in
  let fractions = List.map frac [ 0.7; 0.8; 0.9; 1.0 ] in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "non-decreasing in tac" true (monotone fractions)

(* {2 Experiment renderers} *)

let test_all_experiments_render () =
  let lazy_ctx = ctx in
  List.iter
    (fun (e : Registry.experiment) ->
      let out = e.Registry.render lazy_ctx in
      check Alcotest.bool (e.Registry.id ^ " non-empty") true
        (String.length out > 50))
    Registry.all

let test_registry_complete () =
  check
    (Alcotest.list Alcotest.string)
    "every paper artifact is registered"
    [ "fig1"; "tab1"; "tab2"; "tab3"; "sec72"; "tab4"; "tab5"; "tab6";
      "fig7"; "fig8"; "tab7"; "tab8"; "sanitize"; "lint"; "ablation-irq";
      "ablation-wor"; "ablation-selection"; "ablation-subclass";
      "ablation-sides"; "ablation-corruption"; "lockdep"; "relations";
      "lockmeter" ]
    Registry.ids

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "import is clean" `Quick test_import_clean;
          Alcotest.test_case "type keys" `Quick test_all_type_keys_present;
        ] );
      ( "ground truth",
        [
          Alcotest.test_case "ES rules" `Quick test_ground_truth_es_rules;
          Alcotest.test_case "EO rules" `Quick test_ground_truth_eo_rules;
          Alcotest.test_case "global/es rules" `Quick test_ground_truth_global_rules;
          Alcotest.test_case "lock-free members" `Quick test_lockless_members;
          Alcotest.test_case "subclasses diverge" `Quick test_subclass_divergence;
        ] );
      ( "checker",
        [ Alcotest.test_case "documentation bugs" `Quick test_checker_finds_doc_bugs ] );
      ( "violations",
        [
          Alcotest.test_case "found" `Quick test_violations_found;
          Alcotest.test_case "confirmed i_flags bug" `Quick test_confirmed_bug_found;
          Alcotest.test_case "faults off" `Slow test_faults_off_clean_blocks;
        ] );
      ( "fig7", [ Alcotest.test_case "monotone" `Quick test_nolock_fraction_monotone ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "all render" `Slow test_all_experiments_render;
        ] );
    ]
