(** Abstract functional specification of KCore, and executable refinement.

    SeKVM's 34.2K-line Coq development proves that the KCore
    implementation refines a stack of abstract layers, on top of which the
    security theorems are stated. This module is the executable analog of
    the top layer: an {e abstract machine} whose state is just the
    security-relevant content — page ownership, sharing, the stage-2
    mapping {e functions}, VM lifecycle — with one pure transition function
    per hypercall, written directly from the paper's English.

    Refinement is then a testable statement (checked by randomized
    commutation in [test_abs_spec] and usable on any scenario):

    {v  abstract(impl_state) --spec op--> abstract(impl_state after op)  v}

    i.e. running the real KCore and abstracting commutes with running the
    specification. The abstraction function [abstract] forgets everything
    the security statements don't mention: TLBs, pools, traces,
    performance counters, page {e contents} (only ownership governs who
    can observe them). *)

open Sekvm
open Machine

(* ------------------------------------------------------------------ *)
(* Abstract state                                                      *)
(* ------------------------------------------------------------------ *)

type owner = O_kcore | O_kserv | O_vm of int [@@deriving show, eq, ord]

type vm_phase = P_registered | P_verified | P_torn_down
[@@deriving show, eq, ord]

type t = {
  n_pages : int;
  page_owner : owner list;  (** indexed by pfn *)
  page_shared : bool list;
  vms : (int * vm_phase) list;  (** sorted by vmid *)
  vm_maps : (int * (int * int) list) list;
      (** per VM: sorted (guest page -> pfn) mapping function *)
  kserv_map : (int * int) list;  (** KServ's stage-2 mapping function *)
  smmu : (int * (owner * (int * int) list)) list;
      (** per device: assigned owner and sorted (iova page -> pfn) map *)
  next_vmid : int;
}
[@@deriving eq]

let sorted l = List.sort compare l

(* ------------------------------------------------------------------ *)
(* Abstraction function                                                *)
(* ------------------------------------------------------------------ *)

let abstract_owner = function
  | S2page.Kcore -> O_kcore
  | S2page.Kserv -> O_kserv
  | S2page.Vm v -> O_vm v

let abstract_phase = function
  | Kcore.Registered -> P_registered
  | Kcore.Verified -> P_verified
  | Kcore.Torn_down -> P_torn_down

(** Forget everything but the security-relevant state. *)
let abstract (k : Kcore.t) : t =
  let n = S2page.n_pages k.Kcore.s2page in
  { n_pages = n;
    page_owner =
      List.init n (fun pfn -> abstract_owner (S2page.owner k.Kcore.s2page pfn));
    page_shared = List.init n (fun pfn -> S2page.is_shared k.Kcore.s2page pfn);
    vms =
      sorted
        (List.map (fun (vmid, vm) -> (vmid, abstract_phase vm.Kcore.vstate))
           k.Kcore.vms);
    vm_maps =
      sorted
        (List.map
           (fun (vmid, vm) ->
             ( vmid,
               sorted
                 (List.map (fun (vp, pfn, _) -> (vp, pfn))
                    (Npt.mappings vm.Kcore.npt)) ))
           k.Kcore.vms);
    kserv_map =
      sorted
        (List.map (fun (vp, pfn, _) -> (vp, pfn))
           (Npt.mappings k.Kcore.kserv_npt));
    smmu =
      sorted
        (List.map
           (fun (device, owner) ->
             let root =
               Option.get
                 (Smmu.root_of k.Kcore.smmu_ops.Smmu_ops.smmu ~device)
             in
             ( device,
               ( abstract_owner owner,
                 sorted
                   (List.map
                      (fun (vp, pfn, _) -> (vp, pfn))
                      (Page_table.mappings k.Kcore.mem
                         k.Kcore.smmu_ops.Smmu_ops.smmu.Smmu.geometry ~root)) ) ))
           k.Kcore.smmu_owners);
    next_vmid = k.Kcore.next_vmid }

(* ------------------------------------------------------------------ *)
(* Specification transitions (pure)                                    *)
(* ------------------------------------------------------------------ *)

let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l

let owner_of st pfn = List.nth st.page_owner pfn
let shared_of st pfn = List.nth st.page_shared pfn

let vm_phase_of st vmid = List.assoc_opt vmid st.vms

let vm_map_of st vmid =
  match List.assoc_opt vmid st.vm_maps with Some m -> m | None -> []

let update_vm_map st vmid f =
  { st with
    vm_maps =
      sorted
        ((vmid, sorted (f (vm_map_of st vmid)))
        :: List.remove_assoc vmid st.vm_maps) }

let update_phase st vmid phase =
  { st with vms = sorted ((vmid, phase) :: List.remove_assoc vmid st.vms) }

(** [smmu_attach device owner]: new context bank, empty map. *)
let spec_smmu_attach (st : t) ~device ~owner : (t, [ `Denied ]) result =
  if List.mem_assoc device st.smmu then Error `Denied
  else Ok { st with smmu = sorted ((device, (owner, [])) :: st.smmu) }

(** [smmu_map device iova pfn]: the frame must belong to the device's
    assigned owner (never KCore). *)
let spec_smmu_map (st : t) ~device ~iova_page ~pfn : (t, [ `Denied ]) result =
  match List.assoc_opt device st.smmu with
  | None -> Error `Denied
  | Some (owner, m) ->
      if owner_of st pfn <> owner || owner = O_kcore
         || List.mem_assoc iova_page m
      then Error `Denied
      else
        Ok
          { st with
            smmu =
              sorted
                ((device, (owner, sorted ((iova_page, pfn) :: m)))
                :: List.remove_assoc device st.smmu) }

let spec_smmu_unmap (st : t) ~device ~iova_page : (t, [ `Denied ]) result =
  match List.assoc_opt device st.smmu with
  | None -> Error `Denied
  | Some (owner, m) ->
      if not (List.mem_assoc iova_page m) then Error `Denied
      else
        Ok
          { st with
            smmu =
              sorted
                ((device, (owner, List.remove_assoc iova_page m))
                :: List.remove_assoc device st.smmu) }

(** [register_vm]: allocate the next VMID, create an empty mapping. *)
let spec_register_vm (st : t) : t * int =
  let vmid = st.next_vmid in
  ( { st with
      next_vmid = vmid + 1;
      vms = sorted ((vmid, P_registered) :: st.vms);
      vm_maps = sorted ((vmid, []) :: st.vm_maps) },
    vmid )

(* Some device's SMMU table still maps [pfn]: donating it to a VM
    would leave a DMA path into the VM's memory. *)
let dma_reachable st pfn =
  List.exists (fun (_, (_, m)) -> List.exists (fun (_, p) -> p = pfn) m) st.smmu

(** [set_vm_image pfns]: authenticated boot. The pages must all be
    KServ's, unshared and out of every device's reach; they move to the
    VM, leave KServ's map, and are mapped at consecutive guest pages from
    0; the VM becomes Verified. *)
let spec_set_vm_image (st : t) ~vmid ~pfns : (t, [ `Denied ]) result =
  if
    List.exists
      (fun pfn ->
        owner_of st pfn <> O_kserv || shared_of st pfn || dma_reachable st pfn)
      pfns
    || vm_phase_of st vmid <> Some P_registered
  then Error `Denied
  else
    let st =
      List.fold_left
        (fun st pfn ->
          { st with
            page_owner = set_nth st.page_owner pfn (O_vm vmid);
            kserv_map = List.filter (fun (vp, _) -> vp <> pfn) st.kserv_map })
        st pfns
    in
    let st =
      update_vm_map st vmid (fun m ->
          m @ List.mapi (fun i pfn -> (i, pfn)) pfns)
    in
    Ok (update_phase st vmid P_verified)

(** [map_page_to_vm ipa pfn]: the stage-2 fault resolution. The page must
    be KServ's, unshared and out of every device's reach; it leaves
    KServ's map, changes owner, and backs the guest page (content is
    scrubbed — invisible here). *)
let spec_map_page_to_vm (st : t) ~vmid ~vp ~pfn : (t, [ `Denied ]) result =
  if
    owner_of st pfn <> O_kserv
    || shared_of st pfn
    || dma_reachable st pfn
    || vm_phase_of st vmid = None
    || List.mem_assoc vp (vm_map_of st vmid)
  then Error `Denied
  else
    let st =
      { st with
        page_owner = set_nth st.page_owner pfn (O_vm vmid);
        kserv_map = List.filter (fun (p, _) -> p <> pfn) st.kserv_map }
    in
    Ok (update_vm_map st vmid (fun m -> (vp, pfn) :: m))

(** [kserv_fault pfn]: lazy 1:1 host mapping, KServ-owned or shared
    pages only. *)
let spec_kserv_fault (st : t) ~pfn : (t, [ `Denied ]) result =
  if owner_of st pfn = O_kserv || shared_of st pfn then
    if List.mem_assoc pfn st.kserv_map then Ok st
    else Ok { st with kserv_map = sorted ((pfn, pfn) :: st.kserv_map) }
  else Error `Denied

(** [vm_share_page vp]: mark the backing page shared and expose it 1:1 in
    KServ's map. *)
let spec_share (st : t) ~vmid ~vp : (t, [ `Denied ]) result =
  match List.assoc_opt vp (vm_map_of st vmid) with
  | None -> Error `Denied
  | Some pfn ->
      if owner_of st pfn <> O_vm vmid then Error `Denied
      else
        Ok
          { st with
            page_shared = set_nth st.page_shared pfn true;
            kserv_map =
              (if List.mem_assoc pfn st.kserv_map then st.kserv_map
               else sorted ((pfn, pfn) :: st.kserv_map)) }

(** [vm_unshare_page vp]: revoke the KServ view. *)
let spec_unshare (st : t) ~vmid ~vp : (t, [ `Denied ]) result =
  match List.assoc_opt vp (vm_map_of st vmid) with
  | None -> Error `Denied
  | Some pfn ->
      if owner_of st pfn <> O_vm vmid || not (shared_of st pfn) then
        Error `Denied
      else
        Ok
          { st with
            page_shared = set_nth st.page_shared pfn false;
            kserv_map = List.filter (fun (p, _) -> p <> pfn) st.kserv_map }

(** [teardown_vm]: DMA windows of the VM's devices are revoked and the
    devices released; every page returns (scrubbed) to KServ; sharing
    ends; the mapping function empties; the VM is torn down for good. *)
let spec_teardown (st : t) ~vmid : t =
  let st =
    { st with
      smmu =
        List.filter (fun (_, (owner, _)) -> owner <> O_vm vmid) st.smmu }
  in
  let st =
    List.fold_left
      (fun st (_, pfn) ->
        { st with
          page_owner = set_nth st.page_owner pfn O_kserv;
          page_shared = set_nth st.page_shared pfn false;
          kserv_map = List.filter (fun (p, _) -> p <> pfn) st.kserv_map })
      st (vm_map_of st vmid)
  in
  let st = update_vm_map st vmid (fun _ -> []) in
  update_phase st vmid P_torn_down

(* ------------------------------------------------------------------ *)
(* Abstract security statements                                        *)
(* ------------------------------------------------------------------ *)

(** The abstract forms of the §5.3 invariants: these are provable by
    induction over the specification transitions (each case is a line of
    arithmetic) and carried to the implementation by refinement. *)
let invariant (st : t) : (unit, string) result =
  (* KServ's map reaches only KServ pages or shared pages *)
  let bad_kserv =
    List.filter
      (fun (_, pfn) ->
        owner_of st pfn <> O_kserv && not (shared_of st pfn))
      st.kserv_map
  in
  (* a VM's map reaches only its own pages *)
  let bad_vm =
    List.concat_map
      (fun (vmid, m) ->
        List.filter (fun (_, pfn) -> owner_of st pfn <> O_vm vmid) m)
      st.vm_maps
  in
  (* no KCore page is reachable from anyone *)
  let kcore_leak =
    List.exists (fun (_, pfn) -> owner_of st pfn = O_kcore) st.kserv_map
    || List.exists
         (fun (_, m) ->
           List.exists (fun (_, pfn) -> owner_of st pfn = O_kcore) m)
         st.vm_maps
  in
  (* SMMU maps respect the device's assigned owner *)
  let bad_smmu =
    List.exists
      (fun (_, (owner, m)) ->
        List.exists (fun (_, pfn) -> owner_of st pfn <> owner) m)
      st.smmu
  in
  if bad_kserv <> [] then Error "kserv reaches a non-shared foreign page"
  else if bad_vm <> [] then Error "a VM reaches a page it does not own"
  else if kcore_leak then Error "a KCore page is mapped"
  else if bad_smmu then Error "a device can DMA outside its owner's pages"
  else Ok ()

let pp fmt st =
  Format.fprintf fmt "{vms=%d live; next_vmid=%d; kserv_map=%d entries}"
    (List.length st.vms) st.next_vmid
    (List.length st.kserv_map)
