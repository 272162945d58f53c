(* Executable refinement between KCore and its abstract specification:
   randomized commutation testing (abstract the implementation state, run
   the same hypercall on both sides, compare), plus induction-style
   invariant preservation on the abstract machine alone. *)

open Sekvm
open Vrm

let cfg = Kcore.default_boot_config

let abs_t = Alcotest.testable Abs_spec.pp Abs_spec.equal

(* ---- directed commutation cases ---- *)

let fresh () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  (kcore, kserv)

let test_register_vm_commutes () =
  let kcore, _ = fresh () in
  let a0 = Abs_spec.abstract kcore in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let a_spec, vmid_spec = Abs_spec.spec_register_vm a0 in
  Alcotest.(check int) "same vmid" vmid_spec vmid;
  Alcotest.check abs_t "states agree" a_spec (Abs_spec.abstract kcore)

let test_fault_path_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let pfn = Kserv.alloc_page kserv in
  let a0 = Abs_spec.abstract kcore in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va 50) ~pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "donation denied");
  (match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:50 ~pfn with
  | Ok a_spec -> Alcotest.check abs_t "states agree" a_spec (Abs_spec.abstract kcore)
  | Error `Denied -> Alcotest.fail "spec denied")

let test_denied_donation_is_stutter () =
  (* a denied hypercall must leave the abstract state unchanged on both
     sides — including the subtle already-mapped and kcore-page cases *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let a0 = Abs_spec.abstract kcore in
  (* donating a KCore page *)
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va 60) ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore page donated");
  Alcotest.check abs_t "impl stuttered" a0 (Abs_spec.abstract kcore);
  (match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:60 ~pfn:2 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec allowed");
  (* donating to an already-populated guest page *)
  let pfn = Kserv.alloc_page kserv in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:0 ~pfn with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "double mapping");
  Alcotest.check abs_t "impl stuttered again" a0 (Abs_spec.abstract kcore)

let test_share_unshare_commute () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Machine.Page_table.page_va 30 in
  ignore (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_write (ipa, 5) ]);
  let a0 = Abs_spec.abstract kcore in
  (match Kcore.vm_share_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "share denied");
  let a1 =
    match Abs_spec.spec_share a0 ~vmid ~vp:30 with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec share denied"
  in
  Alcotest.check abs_t "share commutes" a1 (Abs_spec.abstract kcore);
  (match Kcore.vm_unshare_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unshare denied");
  let a2 =
    match Abs_spec.spec_unshare a1 ~vmid ~vp:30 with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec unshare denied"
  in
  Alcotest.check abs_t "unshare commutes" a2 (Abs_spec.abstract kcore)

let test_teardown_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       ([ Vm.G_write (Machine.Page_table.page_va 40, 9) ]
       @ Vm.virtio_round ~ring_ipa:(Machine.Page_table.page_va 41) ~payload:3));
  let a0 = Abs_spec.abstract kcore in
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.check abs_t "teardown commutes"
    (Abs_spec.spec_teardown a0 ~vmid)
    (Abs_spec.abstract kcore)

let test_boot_commutes () =
  let kcore, kserv = fresh () in
  let a0 = Abs_spec.abstract kcore in
  (* replay KServ's boot against the spec: register, fault the image
     pages into KServ's map, transfer *)
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let pfns = List.assoc vmid kserv.Kserv.booted in
  let a, vmid_spec = Abs_spec.spec_register_vm a0 in
  Alcotest.(check int) "vmid" vmid_spec vmid;
  let a =
    List.fold_left
      (fun a pfn ->
        match Abs_spec.spec_kserv_fault a ~pfn with
        | Ok a -> a
        | Error `Denied -> Alcotest.fail "spec fault denied")
      a pfns
  in
  let a =
    match Abs_spec.spec_set_vm_image a ~vmid ~pfns with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec image denied"
  in
  Alcotest.check abs_t "boot commutes" a (Abs_spec.abstract kcore)

let test_smmu_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let vm_pfn =
    List.hd
      (Machine.S2page.pages_owned_by kcore.Kcore.s2page
         (Machine.S2page.Vm vmid))
  in
  let a0 = Abs_spec.abstract kcore in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:9 ~owner:(Machine.S2page.Vm vmid)
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  let a1 =
    Result.get_ok
      (Abs_spec.spec_smmu_attach a0 ~device:9 ~owner:(Abs_spec.O_vm vmid))
  in
  Alcotest.check abs_t "attach commutes" a1 (Abs_spec.abstract kcore);
  (match Kcore.smmu_map kcore ~cpu:0 ~device:9 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "map denied");
  let a2 =
    Result.get_ok
      (Abs_spec.spec_smmu_map a1 ~device:9 ~iova_page:0 ~pfn:vm_pfn)
  in
  Alcotest.check abs_t "map commutes" a2 (Abs_spec.abstract kcore);
  (* mapping a KCore frame is denied on both sides *)
  (match Kcore.smmu_map kcore ~cpu:0 ~device:9 ~iova:4096 ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore dma allowed");
  (match Abs_spec.spec_smmu_map a2 ~device:9 ~iova_page:1 ~pfn:2 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec allowed kcore dma");
  (match Kcore.smmu_unmap kcore ~cpu:0 ~device:9 ~iova:0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unmap denied");
  let a3 =
    Result.get_ok (Abs_spec.spec_smmu_unmap a2 ~device:9 ~iova_page:0)
  in
  Alcotest.check abs_t "unmap commutes" a3 (Abs_spec.abstract kcore)

let test_teardown_revokes_dma_commutes () =
  (* the dangling-DMA bug the spec work uncovered: teardown must drop the
     VM's device windows on both sides *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let vm_pfn =
    List.hd
      (Machine.S2page.pages_owned_by kcore.Kcore.s2page
         (Machine.S2page.Vm vmid))
  in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:4 ~owner:(Machine.S2page.Vm vmid)
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:4 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "map");
  let a0 = Abs_spec.abstract kcore in
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.check abs_t "teardown revokes DMA"
    (Abs_spec.spec_teardown a0 ~vmid)
    (Abs_spec.abstract kcore);
  Alcotest.(check int) "invariants clean" 0
    (List.length (Kcore.check_invariants kcore))

let test_dma_reachable_donation_denied () =
  (* a frame KServ's own device can still DMA into must not reach a VM
     by either donation path: KCore refuses it and stutters, and so must
     the spec — otherwise the VM's page stays open to KServ's DMA *)
  let kcore, kserv = fresh () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let pfn = Kserv.alloc_page kserv in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:7 ~owner:Machine.S2page.Kserv
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:7 ~iova:0 ~pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "map denied");
  let a0 = Abs_spec.abstract kcore in
  (match
     Kcore.set_vm_image kcore ~cpu:0 ~vmid ~pfns:[ pfn ] ~expected_hash:0
   with
  | Error `Denied -> ()
  | Error `Bad_hash | Ok () -> Alcotest.fail "image page not refused");
  Alcotest.check abs_t "image: impl stuttered" a0 (Abs_spec.abstract kcore);
  (match Abs_spec.spec_set_vm_image a0 ~vmid ~pfns:[ pfn ] with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec donated a DMA-reachable image page");
  (match
     Kcore.map_page_to_vm kcore ~cpu:0 ~vmid
       ~ipa:(Machine.Page_table.page_va 50) ~pfn
   with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "fault page not refused");
  Alcotest.check abs_t "fault: impl stuttered" a0 (Abs_spec.abstract kcore);
  match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:50 ~pfn with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec donated a DMA-reachable fault page"

(* ---- randomized refinement ---- *)

module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed * 2 + 1) land 0x3fffffff }

  let next t =
    t.s <- (t.s * 1103515245 + 12345) land 0x3fffffff;
    t.s

  let below t n = next t mod n
end

(* Replay a random mix of spec-covered hypercalls against both machines,
   requiring commutation after every step. *)
let refinement_run seed steps : bool =
  let rng = Rng.create seed in
  let kcore, kserv = fresh () in
  let live = ref [] in
  let ok = ref true in
  let check_point label a_spec =
    if not (Abs_spec.equal a_spec (Abs_spec.abstract kcore)) then begin
      Format.eprintf "seed %d: divergence after %s@." seed label;
      ok := false
    end
  in
  let abs () = Abs_spec.abstract kcore in
  (try
     for _ = 1 to steps do
       if not !ok then raise Exit;
       match Rng.below rng 7 with
       | 0 when List.length !live < 4 -> (
           let a0 = abs () in
           match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
           | Ok vmid ->
               live := vmid :: !live;
               let pfns = List.assoc vmid kserv.Kserv.booted in
               let a, _ = Abs_spec.spec_register_vm a0 in
               let a =
                 List.fold_left
                   (fun a pfn ->
                     Result.get_ok (Abs_spec.spec_kserv_fault a ~pfn))
                   a pfns
               in
               let a =
                 Result.get_ok (Abs_spec.spec_set_vm_image a ~vmid ~pfns)
               in
               check_point "boot" a
           | Error _ -> ()
           | exception Kserv.Out_of_memory -> ())
       | 1 when !live <> [] -> (
           let vmid = List.nth !live (Rng.below rng (List.length !live)) in
           let vp = 32 + Rng.below rng 16 in
           let pfn = Kserv.alloc_page kserv in
           let a0 = abs () in
           match
             Kcore.map_page_to_vm kcore ~cpu:0 ~vmid
               ~ipa:(Machine.Page_table.page_va vp) ~pfn
           with
           | Ok () ->
               check_point "donate"
                 (Result.get_ok (Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp ~pfn))
           | Error `Denied ->
               (match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp ~pfn with
               | Error `Denied -> check_point "denied donate" a0
               | Ok _ ->
                   Format.eprintf "seed %d: impl denied, spec allowed@." seed;
                   ok := false);
               Kserv.free_page kserv pfn)
       | 2 when !live <> [] -> (
           let vmid = List.nth !live (Rng.below rng (List.length !live)) in
           let vp = 32 + Rng.below rng 16 in
           let a0 = abs () in
           match Kcore.vm_share_page kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va vp) with
           | Ok () ->
               check_point "share"
                 (Result.get_ok (Abs_spec.spec_share a0 ~vmid ~vp))
           | Error `Denied -> (
               match Abs_spec.spec_share a0 ~vmid ~vp with
               | Error `Denied -> check_point "denied share" a0
               | Ok _ ->
                   Format.eprintf "seed %d: share disagreement@." seed;
                   ok := false))
       | 3 when !live <> [] -> (
           let vmid = List.nth !live (Rng.below rng (List.length !live)) in
           let vp = 32 + Rng.below rng 16 in
           let a0 = abs () in
           match Kcore.vm_unshare_page kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va vp) with
           | Ok () ->
               check_point "unshare"
                 (Result.get_ok (Abs_spec.spec_unshare a0 ~vmid ~vp))
           | Error `Denied -> (
               match Abs_spec.spec_unshare a0 ~vmid ~vp with
               | Error `Denied -> check_point "denied unshare" a0
               | Ok _ ->
                   Format.eprintf "seed %d: unshare disagreement@." seed;
                   ok := false))
       | 4 when !live <> [] ->
           let vmid = List.nth !live (Rng.below rng (List.length !live)) in
           live := List.filter (fun v -> v <> vmid) !live;
           let a0 = abs () in
           Kcore.teardown_vm kcore ~cpu:0 ~vmid;
           check_point "teardown" (Abs_spec.spec_teardown a0 ~vmid)
       | 5 -> (
           let pfn = Rng.below rng cfg.Kcore.n_pages in
           let a0 = abs () in
           match Kcore.kserv_fault kcore ~cpu:0 ~addr:(Machine.Page_table.page_va pfn) with
           | Ok () ->
               check_point "kserv fault"
                 (Result.get_ok (Abs_spec.spec_kserv_fault a0 ~pfn))
           | Error `Denied -> (
               match Abs_spec.spec_kserv_fault a0 ~pfn with
               | Error `Denied -> check_point "denied fault" a0
               | Ok _ ->
                   Format.eprintf "seed %d: fault disagreement@." seed;
                   ok := false))
       | _ -> (
           (* abstract invariant must also hold at every point *)
           match Abs_spec.invariant (abs ()) with
           | Ok () -> ()
           | Error msg ->
               Format.eprintf "seed %d: abstract invariant: %s@." seed msg;
               ok := false)
     done
   with Exit -> ());
  !ok

let qcheck_refinement =
  QCheck.Test.make ~name:"KCore refines its abstract specification"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed -> refinement_run seed 40)

(* ---- abstract-machine induction ---- *)

let test_spec_invariant_induction () =
  (* the §5.3 invariants hold initially and are preserved by every spec
     transition on a randomly driven abstract machine (no implementation
     involved: this is the induction the Coq development does) *)
  let rng = Rng.create 99 in
  let st = ref (Abs_spec.abstract (Kcore.boot cfg)) in
  let check () =
    match Abs_spec.invariant !st with
    | Ok () -> ()
    | Error m -> Alcotest.failf "abstract invariant broken: %s" m
  in
  check ();
  let vms = ref [] in
  for _ = 1 to 300 do
    (match Rng.below rng 6 with
    | 0 ->
        let a, vmid = Abs_spec.spec_register_vm !st in
        st := a;
        vms := vmid :: !vms
    | 1 when !vms <> [] -> (
        let vmid = List.nth !vms (Rng.below rng (List.length !vms)) in
        let pfn = Rng.below rng 1024 in
        match Abs_spec.spec_map_page_to_vm !st ~vmid ~vp:(Rng.below rng 64) ~pfn with
        | Ok a -> st := a
        | Error `Denied -> ())
    | 2 when !vms <> [] -> (
        let vmid = List.nth !vms (Rng.below rng (List.length !vms)) in
        match Abs_spec.spec_share !st ~vmid ~vp:(Rng.below rng 64) with
        | Ok a -> st := a
        | Error `Denied -> ())
    | 3 when !vms <> [] -> (
        let vmid = List.nth !vms (Rng.below rng (List.length !vms)) in
        match Abs_spec.spec_unshare !st ~vmid ~vp:(Rng.below rng 64) with
        | Ok a -> st := a
        | Error `Denied -> ())
    | 4 when !vms <> [] ->
        let vmid = List.nth !vms (Rng.below rng (List.length !vms)) in
        st := Abs_spec.spec_teardown !st ~vmid
    | _ -> (
        match Abs_spec.spec_kserv_fault !st ~pfn:(Rng.below rng 1024) with
        | Ok a -> st := a
        | Error `Denied -> ()));
    check ()
  done

let () =
  Alcotest.run "abs-spec"
    [ ( "commutation",
        [ Alcotest.test_case "register_vm" `Quick test_register_vm_commutes;
          Alcotest.test_case "fault path" `Quick test_fault_path_commutes;
          Alcotest.test_case "denied donation stutters" `Quick
            test_denied_donation_is_stutter;
          Alcotest.test_case "share/unshare" `Quick
            test_share_unshare_commute;
          Alcotest.test_case "teardown" `Quick test_teardown_commutes;
          Alcotest.test_case "boot" `Quick test_boot_commutes;
          Alcotest.test_case "smmu ops" `Quick test_smmu_commutes;
          Alcotest.test_case "teardown revokes DMA" `Quick
            test_teardown_revokes_dma_commutes;
          Alcotest.test_case "no DMA-reachable donation" `Quick
            test_dma_reachable_donation_denied ] );
      ( "randomized",
        [ QCheck_alcotest.to_alcotest qcheck_refinement;
          Alcotest.test_case "abstract invariant induction" `Quick
            test_spec_invariant_induction ] ) ]
