(** Dentry cache of the simulated kernel (fs/dcache.c, fs/libfs.c,
    fs/namei.c).

    Locking discipline mirrored from Linux 4.10:
    - a child's [d_child]/[d_subdirs] linkage is protected by the
      {e parent's} [d_lock] — an embedded-other (EO) rule on the same
      data type;
    - [d_instantiate] nests [d_lock] inside the inode's [i_lock];
    - lookups read names under the victim's own [d_lock] within an RCU +
      rename-seqlock section;
    - the cursor-based readdir in fs/libfs.c walks [d_subdirs] under the
      directory inode's [i_rwsem] plus RCU only — the violation the paper
      reports in Tab. 8 (fs/libfs.c:104). *)

open Obj

let fn file span name body = Kernel.fn_scope ~file ~span name body

(* {2 Allocation and tree linkage} *)

let d_alloc parent name_hash =
  fn "fs/dcache.c" 30 "d_alloc" @@ fun () ->
  let dentry = alloc_dentry parent.d_sb (Some parent) in
  Lock.spin_lock parent.d_lock;
  (* list_add to the parent's d_subdirs and our d_child: both ends are
     written under the parent's d_lock. *)
  Memory.write parent.d_inst "d_subdirs" dentry.d_inst.Memory.base;
  Memory.write dentry.d_inst "d_child" parent.d_inst.Memory.base;
  Memory.write dentry.d_inst "d_name" name_hash;
  Memory.write dentry.d_inst "d_iname" name_hash;
  parent.d_children <- dentry :: parent.d_children;
  Lock.spin_unlock parent.d_lock;
  dentry

let d_alloc_root sb =
  fn "fs/dcache.c" 12 "d_make_root" @@ fun () ->
  alloc_dentry sb None

let d_instantiate dentry inode =
  fn "fs/dcache.c" 20 "d_instantiate" @@ fun () ->
  Lock.spin_lock inode.i_lock;
  Lock.spin_lock dentry.d_lock;
  Memory.write dentry.d_inst "d_inode" inode.i_inst.Memory.base;
  Memory.modify dentry.d_inst "d_flags" (fun f -> f lor 0x2);
  Memory.write dentry.d_inst "d_time" 1;
  Memory.write inode.i_inst "i_dentry" dentry.d_inst.Memory.base;
  dentry.d_inode_obj <- Some inode;
  Lock.spin_unlock dentry.d_lock;
  Lock.spin_unlock inode.i_lock

(* {2 Lookup} *)

let d_lookup parent name_hash =
  fn "fs/dcache.c" 34 "d_lookup" @@ fun () ->
  Lock.with_rcu @@ fun () ->
  (* Hash-chain peek under the global hash lock before the seq walk. *)
  (match parent.d_children with
  | first :: _ ->
      Lock.spin_lock Globals.dentry_hash_lock;
      ignore (Memory.read first.d_inst "d_hash");
      Lock.spin_unlock Globals.dentry_hash_lock
  | [] -> ());
  Lock.read_seq_section Globals.rename_lock @@ fun () ->
  let found =
    List.find_opt
      (fun child ->
        Lock.spin_lock child.d_lock;
        (* A child unlinked while we waited for its d_lock (the walk
           runs over a snapshot of the list) is d_unhashed: a miss,
           as in __d_lookup, or we would resurrect a dentry already
           queued for freeing. *)
        let hit =
          ignore (Memory.read child.d_inst "d_parent");
          ignore (Memory.read child.d_inst "d_flags");
          Memory.read child.d_inst "d_name" = name_hash
          && List.memq child parent.d_children
        in
        if hit then begin
          ignore (Memory.read child.d_inst "d_inode");
          ignore (Memory.read child.d_inst "d_count");
          Memory.modify child.d_inst "d_count" (fun c -> c + 1)
        end
        else ignore (Memory.read child.d_inst "d_count");
        Lock.spin_unlock child.d_lock;
        hit)
      parent.d_children
  in
  found

(* Lock-free RCU walk: reads d_seq-protected fields without d_lock, as the
   real fast path does; contributes lock-free reads of d_name/d_parent. *)
let d_lookup_rcu parent name_hash =
  fn "fs/dcache.c" 28 "__d_lookup_rcu" @@ fun () ->
  Lock.with_rcu @@ fun () ->
  List.find_opt
    (fun child ->
      ignore (Memory.read child.d_inst "d_parent");
      ignore (Memory.read child.d_inst "d_hash");
      ignore (Memory.read child.d_inst "d_iname");
      Memory.read child.d_inst "d_name" = name_hash)
    parent.d_children

(* {2 Reference counting and LRU} *)

let dget dentry =
  fn "fs/dcache.c" 8 "dget" @@ fun () ->
  Lock.spin_lock dentry.d_lock;
  Memory.modify dentry.d_inst "d_count" (fun c -> c + 1);
  Lock.spin_unlock dentry.d_lock

let dentry_lru_add dentry =
  fn "fs/dcache.c" 12 "d_lru_add" @@ fun () ->
  let sb = dentry.d_sb in
  (* Lock-free fast-path membership peek before taking the LRU lock. *)
  if Memory.read dentry.d_inst "d_lru" = 0 then begin
  Lock.spin_lock sb.s_dentry_lru_lock;
  Memory.write dentry.d_inst "d_lru" 1;
  Memory.modify dentry.d_inst "d_flags" (fun f -> f lor 0x80 (* DCACHE_LRU_LIST *));
  if not (List.memq dentry sb.s_dentry_lru) then
    sb.s_dentry_lru <- dentry :: sb.s_dentry_lru;
  Lock.spin_unlock sb.s_dentry_lru_lock
  end

(* Removal from the LRU on the kill path (__dentry_kill shape). *)
let dentry_lru_del dentry =
  fn "fs/dcache.c" 10 "d_lru_del" @@ fun () ->
  let sb = dentry.d_sb in
  Lock.spin_lock sb.s_dentry_lru_lock;
  if List.memq dentry sb.s_dentry_lru then begin
    Memory.write dentry.d_inst "d_lru" 0;
    sb.s_dentry_lru <- List.filter (fun d -> d != dentry) sb.s_dentry_lru
  end;
  Lock.spin_unlock sb.s_dentry_lru_lock

let dput dentry =
  fn "fs/dcache.c" 26 "dput" @@ fun () ->
  Lock.spin_lock dentry.d_lock;
  (* simple_empty-style child check under our own d_lock. *)
  ignore (Memory.read dentry.d_inst "d_subdirs");
  let count = Memory.read dentry.d_inst "d_count" - 1 in
  Memory.write dentry.d_inst "d_count" count;
  Lock.spin_unlock dentry.d_lock;
  if count = 0 then dentry_lru_add dentry

(* {2 Unlink / delete} *)

let d_drop dentry =
  fn "fs/dcache.c" 16 "__d_drop" @@ fun () ->
  Lock.spin_lock dentry.d_lock;
  Lock.spin_lock Globals.dentry_hash_lock;
  ignore (Memory.read dentry.d_inst "d_hash");
  Memory.write dentry.d_inst "d_hash" 0;
  Memory.modify dentry.d_inst "d_flags" (fun f -> f land lnot 0x2);
  Lock.spin_unlock Globals.dentry_hash_lock;
  Lock.spin_unlock dentry.d_lock

let d_delete dentry =
  fn "fs/dcache.c" 22 "d_delete" @@ fun () ->
  (* The victim must have no children: checked under its d_lock. *)
  Lock.spin_lock dentry.d_lock;
  ignore (Memory.read dentry.d_inst "d_subdirs");
  Lock.spin_unlock dentry.d_lock;
  (match dentry.d_inode_obj with
  | Some inode ->
      Lock.spin_lock inode.i_lock;
      Lock.spin_lock dentry.d_lock;
      Memory.write dentry.d_inst "d_inode" 0;
      Memory.write inode.i_inst "i_dentry" 0;
      dentry.d_inode_obj <- None;
      Lock.spin_unlock dentry.d_lock;
      Lock.spin_unlock inode.i_lock
  | None -> ());
  d_drop dentry

let remove_child parent dentry =
  fn "fs/dcache.c" 14 "dentry_unlist" @@ fun () ->
  Lock.spin_lock parent.d_lock;
  Memory.write parent.d_inst "d_subdirs" 0;
  ignore (Memory.read dentry.d_inst "d_child");
  Memory.write dentry.d_inst "d_child" 0;
  parent.d_children <- List.filter (fun d -> d != dentry) parent.d_children;
  Lock.spin_unlock parent.d_lock

(* {2 Rename} *)

let d_move dentry new_parent =
  fn "fs/dcache.c" 40 "d_move" @@ fun () ->
  Lock.mutex_lock dentry.d_sb.s_rename_mutex;
  Lock.write_seqlock Globals.rename_lock;
  (match dentry.d_parent with
  | Some old_parent when old_parent != new_parent ->
      Lock.spin_lock old_parent.d_lock;
      Lock.spin_lock new_parent.d_lock;
      (* Linkage peek while only the parents' locks are held. *)
      ignore (Memory.read dentry.d_inst "d_child");
      Lock.spin_lock dentry.d_lock;
      Memory.write old_parent.d_inst "d_subdirs" 0;
      Memory.write new_parent.d_inst "d_subdirs" dentry.d_inst.Memory.base;
      Memory.write dentry.d_inst "d_parent" new_parent.d_inst.Memory.base;
      Memory.write dentry.d_inst "d_child" new_parent.d_inst.Memory.base;
      (* Rehash without the dcache hash lock (rename-seq section instead),
         keeping the documented hash-lock rule below 100 %. *)
      Memory.write dentry.d_inst "d_hash" 1;
      old_parent.d_children <-
        List.filter (fun d -> d != dentry) old_parent.d_children;
      new_parent.d_children <- dentry :: new_parent.d_children;
      dentry.d_parent <- Some new_parent;
      Lock.spin_unlock dentry.d_lock;
      Lock.spin_unlock new_parent.d_lock;
      Lock.spin_unlock old_parent.d_lock
  | Some _ | None -> ());
  Lock.write_sequnlock Globals.rename_lock;
  Lock.mutex_unlock dentry.d_sb.s_rename_mutex

(* {2 Shrinking} *)

let shrink_dcache_sb sb =
  fn "fs/dcache.c" 28 "shrink_dcache_sb" @@ fun () ->
  (* Pass 1: pick victims under the LRU lock; pure d_lru reads for the
     survivors, read+write for the evicted. d_count is peeked without
     the dentry's own d_lock (as the real shrinker's fast path does). *)
  Lock.spin_lock sb.s_dentry_lru_lock;
  let victims =
    List.filter
      (fun d ->
        ignore (Memory.read d.d_inst "d_lru");
        ignore (Memory.read d.d_inst "d_flags");
        Memory.read d.d_inst "d_count" = 0)
      sb.s_dentry_lru
  in
  List.iter (fun d -> Memory.write d.d_inst "d_lru" 0) victims;
  sb.s_dentry_lru <-
    List.filter (fun d -> not (List.memq d victims)) sb.s_dentry_lru;
  (* Unlink the victims from their parents while still inside the
     non-preemptible section, so no concurrent lookup can resurrect a
     dentry we are about to free. The traced d_subdirs/d_child writes
     follow in dentry_unlist below. *)
  List.iter
    (fun d ->
      match d.d_parent with
      | Some p -> p.d_children <- List.filter (fun c -> c != d) p.d_children
      | None -> ())
    victims;
  Lock.spin_unlock sb.s_dentry_lru_lock;
  List.iter
    (fun d ->
      (* Detach the inode pointer lock-free before teardown. *)
      if d.d_inode_obj <> None then begin
        Memory.write d.d_inst "d_inode" 0;
        d.d_inode_obj <- None
      end;
      (match d.d_parent with Some p -> remove_child p d | None -> ());
      (* RCU walkers may still hold the dentry. *)
      Lock.call_rcu (fun () -> free_dentry d))
    victims

(* {2 fs/libfs.c: cursor readdir}

   Walks d_subdirs/d_child of the children holding only the directory
   i_rwsem and RCU — the paper's Tab. 8 dentry violation
   (fs/libfs.c:104). *)

let dcache_readdir dir_inode parent =
  fn "fs/libfs.c" 30 "dcache_readdir" @@ fun () ->
  Lock.down_read dir_inode.i_rwsem;
  Lock.with_rcu (fun () ->
      ignore (Memory.read parent.d_inst "d_subdirs");
      List.iter
        (fun child ->
          ignore (Memory.read child.d_inst "d_child");
          ignore (Memory.read child.d_inst "d_inode");
          ignore (Memory.read child.d_inst "d_name"))
        parent.d_children);
  Lock.up_read dir_inode.i_rwsem

(* Cold declarations for coverage (paper Tab. 3 denominators). *)
let () =
  List.iter
    (fun (name, span) -> ignore (Source.declare ~file:"fs/dcache.c" ~span name))
    [
      ("d_find_alias", 18); ("d_prune_aliases", 24); ("shrink_dentry_list", 30);
      ("d_invalidate", 22); ("d_set_mounted", 16); ("d_ancestor", 10);
      ("d_splice_alias", 28); ("d_add_ci", 20); ("d_exact_alias", 18);
      ("d_rehash", 8); ("d_hash_and_lookup", 12); ("d_obtain_alias", 16);
      ("d_tmpfile", 12); ("is_subdir", 14); ("d_genocide", 16);
      ("find_submount", 12); ("path_check_mount", 10);
    ];
  List.iter
    (fun (name, span) -> ignore (Source.declare ~file:"fs/libfs.c" ~span name))
    [
      ("dcache_dir_open", 8); ("dcache_dir_close", 6); ("dcache_dir_lseek", 18);
      ("simple_statfs", 6); ("simple_lookup", 12); ("simple_open", 6);
      ("simple_link", 14); ("simple_empty", 16); ("simple_unlink", 10);
      ("simple_rmdir", 10); ("simple_rename", 22); ("simple_setattr", 12);
      ("simple_getattr", 8); ("simple_write_begin", 18); ("simple_write_end", 20);
      ("simple_fill_super", 30); ("simple_pin_fs", 14); ("simple_release_fs", 8);
    ];
  List.iter
    (fun (name, span) -> ignore (Source.declare ~file:"fs/namei.c" ~span name))
    []

(* ---- static skeletons (IR) ---------------------------------------- *)

let () =
  let open Skeleton in
  let reg = register ~subsystem:"vfs" in
  let dl = Smember { ty = "dentry"; var = "d"; member = "d_lock" } in
  let pl = Smember { ty = "dentry"; var = "p"; member = "d_lock" } in
  let cl = Smember { ty = "dentry"; var = "c"; member = "d_lock" } in
  let il = Smember { ty = "inode"; var = "i"; member = "i_lock" } in
  let ghash = Sglobal "dentry_hash_lock" in
  let grename = Sglobal "rename_lock" in
  let lru = Smember { ty = "super_block"; var = "d.sb"; member = "s_dentry_lru_lock" } in
  let rd m = read_m "dentry" "d" m in
  let wd m = write_m "dentry" "d" m in
  let rwd m = modify_m "dentry" "d" m in
  let rc m = read_m "dentry" "c" m in
  let bd = [ ("d", "d") ] in
  reg ~root:true "d_alloc"
    (seq
       [
         call "d_alloc_init"; spin_lock pl; write_m "dentry" "p" "d_subdirs";
         wd "d_child"; wd "d_name"; wd "d_iname"; spin_unlock pl;
       ]);
  reg ~root:true "d_make_root" (call "d_alloc_init");
  reg ~root:true "d_instantiate"
    (seq
       [
         spin_lock il; spin_lock dl; wd "d_inode"; rwd "d_flags"; wd "d_time";
         write_m "inode" "i" "i_dentry"; spin_unlock dl; spin_unlock il;
       ]);
  reg ~root:true "d_lookup"
    (with_rcu
       (seq
          [
            opt (seq [ spin_lock ghash; rc "d_hash"; spin_unlock ghash ]);
            read_seq grename
              (star
                 (seq
                    [
                      spin_lock cl; rc "d_parent"; rc "d_flags"; rc "d_name";
                      alt
                        [
                          seq [ rc "d_inode"; rc "d_count"; modify_m "dentry" "c" "d_count" ];
                          rc "d_count";
                        ];
                      spin_unlock cl;
                    ]));
          ]));
  reg ~root:true "__d_lookup_rcu"
    (with_rcu (star (seq [ rc "d_parent"; rc "d_hash"; rc "d_iname"; rc "d_name" ])));
  reg "dget"
    (seq [ spin_lock dl; rwd "d_count"; spin_unlock dl ]);
  reg "d_lru_add"
    (seq
       [
         rd "d_lru";
         opt
           (seq [ spin_lock lru; wd "d_lru"; rwd "d_flags"; spin_unlock lru ]);
       ]);
  reg "d_lru_del"
    (seq [ spin_lock lru; opt (wd "d_lru"); spin_unlock lru ]);
  reg ~root:true "dput"
    (seq
       [
         spin_lock dl; rd "d_subdirs"; rd "d_count"; wd "d_count"; spin_unlock dl;
         opt (call ~binds:bd "d_lru_add");
       ]);
  reg "__d_drop"
    (seq
       [
         spin_lock dl; spin_lock ghash; rd "d_hash"; wd "d_hash"; rwd "d_flags";
         spin_unlock ghash; spin_unlock dl;
       ]);
  reg "d_delete"
    (seq
       [
         spin_lock dl; rd "d_subdirs"; spin_unlock dl;
         opt
           (seq
              [
                spin_lock il; spin_lock dl; wd "d_inode";
                write_m "inode" "i" "i_dentry"; spin_unlock dl; spin_unlock il;
              ]);
         call ~binds:bd "__d_drop";
       ]);
  reg ~root:true "dentry_unlist"
    (seq
       [
         spin_lock pl; write_m "dentry" "p" "d_subdirs"; rd "d_child";
         wd "d_child"; spin_unlock pl;
       ]);
  (* Rehash happens under the rename seqlock, not the hash lock — keeps
     the documented hash-lock rule below 100 %. *)
  reg ~root:true "d_move"
    (seq
       [
         mutex_lock (Smember { ty = "super_block"; var = "d.sb"; member = "s_vfs_rename_mutex" });
         write_seqlock grename;
         opt
           (seq
              [
                spin_lock (Smember { ty = "dentry"; var = "op"; member = "d_lock" });
                spin_lock (Smember { ty = "dentry"; var = "np"; member = "d_lock" });
                rd "d_child"; spin_lock dl;
                write_m "dentry" "op" "d_subdirs"; write_m "dentry" "np" "d_subdirs";
                wd "d_parent"; wd "d_child"; wd "d_hash";
                spin_unlock dl;
                spin_unlock (Smember { ty = "dentry"; var = "np"; member = "d_lock" });
                spin_unlock (Smember { ty = "dentry"; var = "op"; member = "d_lock" });
              ]);
         write_sequnlock grename;
         mutex_unlock (Smember { ty = "super_block"; var = "d.sb"; member = "s_vfs_rename_mutex" });
       ]);
  reg ~root:true "shrink_dcache_sb"
    (seq
       [
         spin_lock (Smember { ty = "super_block"; var = "sb"; member = "s_dentry_lru_lock" });
         star (seq [ rd "d_lru"; rd "d_flags"; rd "d_count" ]);
         star (wd "d_lru");
         spin_unlock (Smember { ty = "super_block"; var = "sb"; member = "s_dentry_lru_lock" });
         star
           (seq
              [
                opt (wd "d_inode");
                opt (call ~binds:[ ("p", "p"); ("d", "d") ] "dentry_unlist");
              ]);
       ]);
  reg ~root:true "dcache_readdir"
    (seq
       [
         down_read (Smember { ty = "inode"; var = "i"; member = "i_rwsem" });
         with_rcu
           (seq
              [
                read_m "dentry" "p" "d_subdirs";
                star (seq [ rc "d_child"; rc "d_inode"; rc "d_name" ]);
              ]);
         up_read (Smember { ty = "inode"; var = "i"; member = "i_rwsem" });
       ])
