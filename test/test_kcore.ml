(* Integration tests for KCore: boot layout, the EL2 write-once page
   table, VM lifecycle (registration, image authentication, faults,
   sharing, teardown), the vCPU run protocol, and the SMMU hypercalls.
   Security invariants are re-checked after every phase. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

let fresh () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  (kcore, kserv)

let check_invariants kcore label =
  let bad = Kcore.check_invariants kcore in
  if bad <> [] then
    Alcotest.failf "%s: %d invariant violations (%s)" label (List.length bad)
      (String.concat "; " (List.map (fun v -> v.Kcore.detail) bad))

let test_boot_layout () =
  let kcore, _ = fresh () in
  (* everything below kserv_base is KCore's; above is KServ's *)
  Alcotest.(check bool) "page 0 kcore" true
    (S2page.owner kcore.Kcore.s2page 0 = S2page.Kcore);
  Alcotest.(check bool) "kserv_base boundary" true
    (S2page.owner kcore.Kcore.s2page (Kcore.kserv_base cfg) = S2page.Kserv);
  (* EL2 linear map covers all of physical memory 1:1 *)
  List.iter
    (fun pfn ->
      match El2_pt.translate kcore.Kcore.el2 ~va:(Page_table.page_va pfn) with
      | Some (p, _) -> Alcotest.(check int) "linear map" pfn p
      | None -> Alcotest.fail "linear map hole")
    [ 0; 1; 100; cfg.Kcore.n_pages - 1 ];
  check_invariants kcore "boot"

let test_el2_write_once () =
  let kcore, _ = fresh () in
  let el2 = kcore.Kcore.el2 in
  (* remap_pfn maps into the remap region and returns distinct VAs *)
  let va1 = El2_pt.remap_pfn el2 ~cpu:0 ~pfn:700 in
  let va2 = El2_pt.remap_pfn el2 ~cpu:0 ~pfn:701 in
  Alcotest.(check bool) "distinct VAs" true (va1 <> va2);
  Alcotest.(check bool) "above the linear map" true
    (Page_table.va_page va1 >= cfg.Kcore.n_pages);
  (match El2_pt.translate el2 ~va:va1 with
  | Some (p, perms) ->
      Alcotest.(check int) "maps the pfn" 700 p;
      Alcotest.(check bool) "read-only" false perms.Pte.writable
  | None -> Alcotest.fail "remap missing");
  (* overwriting a live mapping is refused *)
  (match
     El2_pt.set_el2_pt el2 ~cpu:0 ~va:va1 ~pfn:999 ~perms:Pte.rw
   with
  | Error `Already_mapped -> ()
  | Ok () -> Alcotest.fail "write-once violated");
  (* the trace checker agrees *)
  Alcotest.(check bool) "checker holds" true
    (Vrm.Check_write_once.check kcore.Kcore.trace).Vrm.Check_write_once.holds

let test_gen_vmid () =
  let kcore, _ = fresh () in
  let a = Kcore.gen_vmid kcore ~cpu:0 in
  let b = Kcore.gen_vmid kcore ~cpu:1 in
  Alcotest.(check bool) "unique" true (a <> b);
  Alcotest.(check int) "sequential" (a + 1) b;
  (* exhausting the space panics, per Fig. 1 *)
  let small = Kcore.boot { cfg with Kcore.max_vms = 2 } in
  let _ = Kcore.gen_vmid small ~cpu:0 in
  Alcotest.(check bool) "MAX_VM panic" true
    (try
       ignore (Kcore.gen_vmid small ~cpu:0);
       false
     with Kcore.Kcore_panic _ -> true)

let test_register_vcpu_errors () =
  let kcore, _ = fresh () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  Kcore.register_vcpu kcore ~cpu:0 ~vmid ~vcpuid:0;
  Alcotest.(check bool) "duplicate vcpu panics" true
    (try
       Kcore.register_vcpu kcore ~cpu:0 ~vmid ~vcpuid:0;
       false
     with Kcore.Kcore_panic _ -> true);
  Alcotest.(check bool) "unknown vm panics" true
    (try
       Kcore.register_vcpu kcore ~cpu:0 ~vmid:99 ~vcpuid:0;
       false
     with Kcore.Kcore_panic _ -> true)

let test_image_authentication () =
  let kcore, kserv = fresh () in
  (match Kserv.boot_vm kserv ~cpu:0 ~tamper:true ~n_vcpus:1 ~image_pages:2 with
  | Error `Bad_hash -> ()
  | Error `Denied -> Alcotest.fail "expected Bad_hash"
  | Ok _ -> Alcotest.fail "tampered image accepted");
  (match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
  | Ok vmid ->
      let vm = Kcore.find_vm kcore vmid in
      Alcotest.(check bool) "verified" true (vm.Kcore.vstate = Kcore.Verified);
      Alcotest.(check bool) "hash recorded" true (vm.Kcore.image_hash <> None);
      (* image pages now belong to the VM and are mapped at IPA 0.. *)
      let owned = S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid) in
      Alcotest.(check int) "two image pages" 2 (List.length owned);
      (match Npt.translate vm.Kcore.npt ~ipa:0 with
      | Some _ -> ()
      | None -> Alcotest.fail "image not mapped");
      (* guest sees the exact image content *)
      (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_read 0 ] with
      | [ Vm.R_value v ] ->
          Alcotest.(check int) "image word" (Vm.image_words ~vmid ~page:0 0) v
      | _ -> Alcotest.fail "guest read failed")
  | Error _ -> Alcotest.fail "honest boot failed");
  check_invariants kcore "after boots"

let test_fault_path_transfers_ownership () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let faults0 = kcore.Kcore.s2_faults in
  let ipa = Page_table.page_va 50 in
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_write (ipa, 7); Vm.G_read ipa ] with
  | [ Vm.R_unit; Vm.R_value 7 ] -> ()
  | _ -> Alcotest.fail "fault path failed");
  Alcotest.(check int) "one fault handled" (faults0 + 1) kcore.Kcore.s2_faults;
  (* the backing page is VM-owned now *)
  let vm = Kcore.find_vm kcore vmid in
  (match Npt.translate vm.Kcore.npt ~ipa with
  | Some (pfn, _) ->
      Alcotest.(check bool) "owned by vm" true
        (S2page.owner kcore.Kcore.s2page pfn = S2page.Vm vmid);
      Alcotest.(check int) "map_count 1" 1
        (S2page.map_count kcore.Kcore.s2page pfn)
  | None -> Alcotest.fail "not mapped");
  check_invariants kcore "after faults"

let test_map_page_to_vm_validation () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  (* donating a KCore page is denied *)
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 60) ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore page donated!");
  (* donating a page owned by another VM is denied *)
  let vm_pfn = List.hd (S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid)) in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 61) ~pfn:vm_pfn with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "vm page re-donated!");
  (* a legitimate donation is scrubbed on transfer *)
  let pfn = Kserv.alloc_page kserv in
  (match Kserv.host_write kserv ~cpu:0 ~pfn ~idx:3 1234 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "kserv write");
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 62) ~pfn with
  | Ok () ->
      Alcotest.(check int) "scrubbed" 0 (Phys_mem.read kcore.Kcore.mem ~pfn ~idx:3)
  | Error `Denied -> Alcotest.fail "legit donation denied");
  check_invariants kcore "after donations"

let test_sharing_flow () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Page_table.page_va 30 in
  (* populate, then share *)
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
           [ Vm.G_write (ipa, 55); Vm.G_share ipa ] with
  | [ Vm.R_unit; Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "share failed");
  let vm = Kcore.find_vm kcore vmid in
  let pfn = match Npt.translate vm.Kcore.npt ~ipa with
    | Some (p, _) -> p
    | None -> Alcotest.fail "unmapped"
  in
  Alcotest.(check bool) "marked shared" true (S2page.is_shared kcore.Kcore.s2page pfn);
  (* KServ can now read it through its stage 2 *)
  (match Kserv.host_read kserv ~cpu:0 ~pfn ~idx:0 with
  | Ok v -> Alcotest.(check int) "kserv sees the ring" 55 v
  | Error `Denied -> Alcotest.fail "shared page unreadable");
  check_invariants kcore "while shared";
  (* unshare revokes KServ's view *)
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_unshare ipa ] with
  | [ Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "unshare failed");
  Alcotest.(check bool) "not shared" false (S2page.is_shared kcore.Kcore.s2page pfn);
  (match Kserv.host_read kserv ~cpu:0 ~pfn ~idx:0 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "unshared page still readable");
  check_invariants kcore "after unshare"

let test_vcpu_protocol () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:2 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  Kcore.vcpu_load kcore ~cpu:1 ~vmid ~vcpuid:0;
  (* claiming an ACTIVE vCPU from another CPU must fail *)
  Alcotest.(check bool) "double claim rejected" true
    (try
       Kcore.vcpu_load kcore ~cpu:2 ~vmid ~vcpuid:0;
       false
     with Vcpu_ctxt.Protocol_violation _ -> true);
  (* a different vCPU is fine *)
  Kcore.vcpu_load kcore ~cpu:2 ~vmid ~vcpuid:1;
  Kcore.vcpu_put kcore ~cpu:1;
  Kcore.vcpu_put kcore ~cpu:2;
  (* after put, the context can be claimed again *)
  Kcore.vcpu_load kcore ~cpu:3 ~vmid ~vcpuid:0;
  Kcore.vcpu_put kcore ~cpu:3;
  (* teardown is refused while a vCPU is active *)
  Kcore.vcpu_load kcore ~cpu:3 ~vmid ~vcpuid:0;
  Alcotest.(check bool) "teardown with active vcpu panics" true
    (try
       Kcore.teardown_vm kcore ~cpu:0 ~vmid;
       false
     with Kcore.Kcore_panic _ -> true);
  Kcore.vcpu_put kcore ~cpu:3

let test_teardown_scrubs_and_returns () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let owned = S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid) in
  Alcotest.(check bool) "has pages" true (owned <> []);
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "returned to kserv" true
        (S2page.owner kcore.Kcore.s2page pfn = S2page.Kserv);
      for i = 0 to 8 do
        Alcotest.(check int) "scrubbed" 0 (Phys_mem.read kcore.Kcore.mem ~pfn ~idx:i)
      done)
    owned;
  Alcotest.(check bool) "torn down" true
    ((Kcore.find_vm kcore vmid).Kcore.vstate = Kcore.Torn_down);
  check_invariants kcore "after teardown"

let test_smmu_hypercalls () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:7 ~owner:(S2page.Vm vmid) with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:7 ~owner:S2page.Kserv with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "double attach allowed");
  let vm_pfn = List.hd (S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid)) in
  (match Kcore.smmu_map kcore ~cpu:0 ~device:7 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "legit dma map denied");
  (* DMA to a KCore page is denied *)
  (match Kcore.smmu_map kcore ~cpu:0 ~device:7 ~iova:4096 ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "dma into kcore allowed");
  check_invariants kcore "with dma mapping";
  (match Kcore.smmu_unmap kcore ~cpu:0 ~device:7 ~iova:0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unmap denied");
  check_invariants kcore "after dma unmap"

(* A page a KServ-owned device can still DMA to never changes owner:
   not by runtime donation, not as a VM image page, not by a migration
   import. A refused image donation hands every page back to KServ as it
   was. *)
let test_no_dma_reachable_donation () =
  let kcore, kserv = fresh () in
  let dma_pfn = Kserv.alloc_page kserv and other = Kserv.alloc_page kserv in
  List.iter
    (fun pfn ->
      match Kserv.host_write kserv ~cpu:0 ~pfn ~idx:0 1 with
      | Ok () -> ()
      | Error `Denied -> Alcotest.fail "host write")
    [ other; dma_pfn ];
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:3 ~owner:S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:3 ~iova:0 ~pfn:dma_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map denied");
  let counts () =
    List.map (S2page.map_count kcore.Kcore.s2page) [ other; dma_pfn ]
  in
  let before = counts () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  Kcore.register_vcpu kcore ~cpu:0 ~vmid ~vcpuid:0;
  (match
     Kcore.set_vm_image kcore ~cpu:0 ~vmid ~pfns:[ other; dma_pfn ]
       ~expected_hash:(Vm.image_hash kcore.Kcore.mem [ other; dma_pfn ])
   with
  | Error `Denied -> ()
  | Ok () | Error `Bad_hash -> Alcotest.fail "image donation not denied");
  Alcotest.(check (list int)) "mappings restored" before (counts ());
  Alcotest.(check bool) "KServ still maps the other page" true
    (Npt.is_mapped kcore.Kcore.kserv_npt ~ipa:(Page_table.page_va other));
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "still KServ's" true
        (S2page.owner kcore.Kcore.s2page pfn = S2page.Kserv))
    [ other; dma_pfn ];
  (match
     Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 40)
       ~pfn:dma_pfn
   with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "runtime donation not denied");
  check_invariants kcore "after refused donations";
  match
    Kcore.import_vm kcore ~cpu:0
      ~pages:[ (0, Array.make Phys_mem.entries_per_page 0) ]
      ~donate:(fun () -> dma_pfn)
      ~n_vcpus:1
  with
  | _ -> Alcotest.fail "import of a DMA-reachable page accepted"
  | exception Kcore.Kcore_panic _ -> ()

let test_tlb_maintained_on_unmap () =
  (* after clear_s2pt the CPUs' TLBs hold no stale translation *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Page_table.page_va 33 in
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
           [ Vm.G_write (ipa, 1); Vm.G_read ipa ] with
  | [ Vm.R_unit; Vm.R_value 1 ] -> ()
  | _ -> Alcotest.fail "populate failed");
  (* the read went through CPU 1's TLB; now unmap *)
  let vm = Kcore.find_vm kcore vmid in
  (match Npt.clear_s2pt vm.Kcore.npt ~cpu:0 ~ipa with
  | Ok () -> ()
  | Error `Not_mapped -> Alcotest.fail "unmap");
  Alcotest.(check (option int)) "TLB entry gone" None
    (Option.map fst
       (Tlb.lookup kcore.Kcore.cpus.(1).Cpu.tlb ~vmid ~vp:(Page_table.va_page ipa)))

let () =
  Alcotest.run "kcore"
    [ ( "boot",
        [ Alcotest.test_case "layout" `Quick test_boot_layout;
          Alcotest.test_case "el2 write-once" `Quick test_el2_write_once;
          Alcotest.test_case "gen_vmid" `Quick test_gen_vmid;
          Alcotest.test_case "register errors" `Quick
            test_register_vcpu_errors ] );
      ( "lifecycle",
        [ Alcotest.test_case "image authentication" `Quick
            test_image_authentication;
          Alcotest.test_case "fault path" `Quick
            test_fault_path_transfers_ownership;
          Alcotest.test_case "donation validation" `Quick
            test_map_page_to_vm_validation;
          Alcotest.test_case "sharing flow" `Quick test_sharing_flow;
          Alcotest.test_case "vcpu protocol" `Quick test_vcpu_protocol;
          Alcotest.test_case "teardown scrubs" `Quick
            test_teardown_scrubs_and_returns ] );
      ( "devices",
        [ Alcotest.test_case "smmu hypercalls" `Quick test_smmu_hypercalls;
          Alcotest.test_case "no dma-reachable donation" `Quick
            test_no_dma_reachable_donation;
          Alcotest.test_case "tlb maintained" `Quick
            test_tlb_maintained_on_unmap ] ) ]
