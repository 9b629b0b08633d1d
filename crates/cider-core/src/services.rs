//! The background user-level services iOS apps require: `launchd` (the
//! bootstrap server), `notifyd` (asynchronous notifications), and
//! `configd` (system configuration) — "background user-level services
//! such as launchd, configd, and notifyd were copied from an iOS device"
//! (paper §3). Here they are small message-driven daemons speaking real
//! Mach IPC through the duct-taped subsystem.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use cider_abi::errno::Errno;
use cider_abi::ids::{Pid, PortName, Tid};
use cider_kernel::kernel::Kernel;
use cider_kernel::process::ProcessState;
use cider_xnu::ipc::{PortDescriptor, PortDisposition, UserMessage};
use cider_xnu::kern_return::{KernResult, KernReturn};

use crate::ring::RingOp;
use crate::state::with_state;

/// Typed failures of the service layer — what used to be `.expect()`
/// panics during bootstrap. The supervisor turns most of these into
/// respawn attempts instead of aborting the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A daemon process could not be spawned or configured.
    Spawn(Errno),
    /// A Mach IPC operation failed while wiring a daemon's ports.
    Mach(KernReturn),
    /// A daemon kept dying past the supervisor's restart budget.
    RestartLimit {
        /// Which daemon exhausted its budget.
        daemon: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Spawn(e) => write!(f, "daemon spawn: {e:?}"),
            ServiceError::Mach(kr) => {
                write!(f, "daemon bootstrap IPC: {kr:?}")
            }
            ServiceError::RestartLimit { daemon } => {
                write!(f, "{daemon} exceeded its restart budget")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Errno> for ServiceError {
    fn from(e: Errno) -> ServiceError {
        ServiceError::Spawn(e)
    }
}

impl From<KernReturn> for ServiceError {
    fn from(kr: KernReturn) -> ServiceError {
        ServiceError::Mach(kr)
    }
}

/// Message ids of the service protocols.
pub mod msg_ids {
    /// bootstrap_register: body = service name, ports\[0\] = service port.
    pub const BOOTSTRAP_REGISTER: i32 = 400;
    /// bootstrap_look_up: body = service name, reply expected.
    pub const BOOTSTRAP_LOOKUP: i32 = 404;
    /// look-up reply carrying the service port.
    pub const BOOTSTRAP_LOOKUP_REPLY: i32 = 405;
    /// look-up failure reply.
    pub const BOOTSTRAP_UNKNOWN: i32 = 406;
    /// notifyd: register interest, body = name, ports\[0\] = delivery port.
    pub const NOTIFY_REGISTER: i32 = 500;
    /// notifyd: post, body = name.
    pub const NOTIFY_POST: i32 = 501;
    /// notifyd: delivery to registered clients, body = name.
    pub const NOTIFY_DELIVER: i32 = 502;
    /// configd: set, body = "key=value".
    pub const CONFIG_SET: i32 = 600;
    /// configd: get, body = key, reply expected.
    pub const CONFIG_GET: i32 = 601;
    /// configd: get reply, body = value.
    pub const CONFIG_REPLY: i32 = 602;
    /// configd: key not found.
    pub const CONFIG_UNKNOWN: i32 = 603;
}

/// launchd's service-name registry, living in kernel-resident Cider
/// state so the Mach layer can reach it.
#[derive(Debug, Clone, Default)]
pub struct BootstrapRegistry {
    /// launchd's IPC space.
    pub launchd_space: Option<cider_xnu::ipc::SpaceId>,
    names: BTreeMap<String, PortName>,
}

impl BootstrapRegistry {
    /// Empty registry.
    pub fn new() -> BootstrapRegistry {
        BootstrapRegistry::default()
    }

    /// Forgets every registration (launchd died; its space — and every
    /// send right the registry held — died with it).
    pub fn clear(&mut self) {
        self.names.clear();
        self.launchd_space = None;
    }

    /// Records a service's port (a send right held in launchd's space).
    pub fn register(&mut self, name: impl Into<String>, port: PortName) {
        self.names.insert(name.into(), port);
    }

    /// Looks up a service's port name in launchd's space.
    pub fn lookup(&self, name: &str) -> Option<PortName> {
        self.names.get(name).copied()
    }

    /// Registered service names.
    pub fn service_names(&self) -> Vec<&str> {
        self.names.keys().map(|s| s.as_str()).collect()
    }
}

/// One daemon's identity.
#[derive(Debug, Clone, Copy)]
pub struct Daemon {
    /// Process id.
    pub pid: Pid,
    /// Main thread.
    pub tid: Tid,
    /// Receive port (in the daemon's own space).
    pub port: PortName,
}

/// notifyd's bootstrap name.
pub const NOTIFY_SERVICE: &str = "com.apple.system.notification_center";
/// configd's bootstrap name.
pub const CONFIG_SERVICE: &str = "com.apple.SystemConfiguration.configd";

/// Restart bookkeeping for one supervised daemon.
#[derive(Debug, Clone, Copy)]
struct RestartState {
    restarts: u32,
    backoff_ns: u64,
}

/// launchd-style supervision policy: respawn dead daemons with capped
/// exponential backoff charged against *virtual* time, giving up after
/// a fixed restart budget.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// The first respawn waits this long (virtual ns).
    pub backoff_base_ns: u64,
    /// The backoff doubles per death, saturating here.
    pub backoff_cap_ns: u64,
    /// Respawns allowed per daemon before giving up.
    pub max_restarts: u32,
    state: BTreeMap<&'static str, RestartState>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::new()
    }
}

impl Supervisor {
    /// Default policy: 10 ms base, 320 ms cap, 8 restarts per daemon.
    pub fn new() -> Supervisor {
        Supervisor {
            backoff_base_ns: 10_000_000,
            backoff_cap_ns: 320_000_000,
            max_restarts: 8,
            state: BTreeMap::new(),
        }
    }

    /// Respawns performed so far for a daemon.
    pub fn restarts_of(&self, daemon: &str) -> u32 {
        self.state.get(daemon).map_or(0, |s| s.restarts)
    }

    /// Charges the next backoff for `daemon` against virtual time,
    /// doubling it for the following death, or fails once the restart
    /// budget is exhausted.
    fn charge_backoff(
        &mut self,
        k: &mut Kernel,
        daemon: &'static str,
    ) -> Result<(), ServiceError> {
        let base = self.backoff_base_ns;
        let cap = self.backoff_cap_ns;
        let st = self.state.entry(daemon).or_insert(RestartState {
            restarts: 0,
            backoff_ns: base,
        });
        if st.restarts >= self.max_restarts {
            return Err(ServiceError::RestartLimit { daemon });
        }
        st.restarts += 1;
        let wait = st.backoff_ns;
        st.backoff_ns = (st.backoff_ns * 2).min(cap);
        k.charge_raw(wait);
        Ok(())
    }
}

/// Whether a daemon is gone: its process was reaped or is a zombie.
fn daemon_dead(k: &Kernel, d: Daemon) -> bool {
    match k.process(d.pid) {
        Err(_) => true,
        Ok(p) => matches!(p.state, ProcessState::Zombie(_)),
    }
}

/// The three service daemons plus their user-space state.
#[derive(Debug, Clone)]
pub struct Services {
    /// The bootstrap server.
    pub launchd: Daemon,
    /// The notification server.
    pub notifyd: Daemon,
    /// The configuration server.
    pub configd: Daemon,
    /// notifyd's registrations: name → delivery ports (send rights in
    /// notifyd's space).
    notify_regs: BTreeMap<String, Vec<PortName>>,
    /// configd's store.
    config_store: BTreeMap<String, String>,
    /// Messages processed across all daemons.
    pub processed: u64,
    /// Restart policy and bookkeeping.
    pub supervisor: Supervisor,
    /// External processes watched for death (label, pid). Reported by
    /// [`Services::supervise`], never respawned.
    watched: Vec<(String, Pid)>,
}

fn spawn_daemon(k: &mut Kernel, name: &str) -> Result<Daemon, ServiceError> {
    let (pid, tid) = k.spawn_process();
    k.process_mut(pid)?.program.path = format!("/usr/libexec/{name}");
    let port = match with_state(k, |k2, st| {
        let p = st.port_allocate_for(k2, tid, pid)?;
        let space = st.task_space(pid);
        // Daemons serve many clients; raise the queue limit.
        st.machipc
            .set_qlimit(space, p, cider_xnu::ipc::port::QLIMIT_MAX)?;
        Ok::<_, KernReturn>(p)
    }) {
        Ok(p) => p,
        Err(kr) => {
            // Don't leak the half-built process.
            let _ = k.sys_exit(tid, 1);
            return Err(ServiceError::Mach(kr));
        }
    };
    Ok(Daemon { pid, tid, port })
}

/// Publishes a daemon's service port in launchd's bootstrap registry:
/// a send right is minted in the daemon's space and copied into
/// launchd's.
fn register_with_launchd(
    k: &mut Kernel,
    launchd: Daemon,
    name: &str,
    d: Daemon,
) -> Result<(), ServiceError> {
    with_state(k, |_, st| {
        let lspace = st.task_space(launchd.pid);
        st.bootstrap.launchd_space = Some(lspace);
        let dspace = st.task_space(d.pid);
        let recv = st.machipc.receive_right(dspace, d.port)?;
        let send = st.machipc.insert_send(dspace, recv)?;
        let in_launchd = st.machipc.copy_send(dspace, send, lspace)?;
        st.bootstrap.register(name.to_string(), in_launchd.name());
        Ok::<_, KernReturn>(())
    })
    .map_err(ServiceError::Mach)
}

impl Services {
    /// Boots the three daemons: spawns their processes, allocates their
    /// receive ports, and registers notifyd/configd with launchd.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when a daemon cannot be spawned or its ports
    /// cannot be wired (e.g. under injected zalloc exhaustion).
    pub fn boot(k: &mut Kernel) -> Result<Services, ServiceError> {
        let launchd = spawn_daemon(k, "launchd")?;
        let notifyd = spawn_daemon(k, "notifyd")?;
        let configd = spawn_daemon(k, "configd")?;
        register_with_launchd(k, launchd, NOTIFY_SERVICE, notifyd)?;
        register_with_launchd(k, launchd, CONFIG_SERVICE, configd)?;

        Ok(Services {
            launchd,
            notifyd,
            configd,
            notify_regs: BTreeMap::new(),
            config_store: BTreeMap::new(),
            processed: 0,
            supervisor: Supervisor::new(),
            watched: Vec::new(),
        })
    }

    /// Registers an external process (e.g. CiderPress) for death
    /// detection. Watched processes are reported by
    /// [`Services::supervise`], not respawned.
    pub fn watch(&mut self, label: impl Into<String>, pid: Pid) {
        self.watched.push((label.into(), pid));
    }

    /// One supervision pass: detects dead daemons, respawns each with
    /// capped exponential backoff (charged against virtual time),
    /// rebuilds its bootstrap registration, and reports watched
    /// external processes that died. Returns the ledger of actions
    /// taken, empty when everything is healthy.
    ///
    /// # Errors
    ///
    /// [`ServiceError::RestartLimit`] when a daemon has died more
    /// often than the restart budget allows.
    pub fn supervise(
        &mut self,
        k: &mut Kernel,
    ) -> Result<Vec<String>, ServiceError> {
        let mut actions = Vec::new();
        for which in ["launchd", "notifyd", "configd"] {
            let old = match which {
                "launchd" => self.launchd,
                "notifyd" => self.notifyd,
                _ => self.configd,
            };
            if !daemon_dead(k, old) {
                continue;
            }
            self.supervisor.charge_backoff(k, which)?;
            let fresh = match spawn_daemon(k, which) {
                Ok(d) => d,
                Err(_) => {
                    // Faults can hit the respawn itself; the backoff
                    // was charged, so the next pass retries (slower).
                    k.trace_recovery(format!(
                        "launchd/respawn_failed({which})"
                    ));
                    actions.push(format!("respawn_failed({which})"));
                    continue;
                }
            };
            // Tear down the dead daemon's IPC space; rights other
            // tasks held on it become dead names, as on task death.
            with_state(k, |k2, st| {
                st.destroy_task_space(k2, fresh.tid, old.pid);
            });
            match which {
                "launchd" => {
                    self.launchd = fresh;
                    // Every send right the registry held lived in the
                    // old launchd space: rebuild from scratch.
                    with_state(k, |_, st| st.bootstrap.clear());
                    register_with_launchd(
                        k,
                        fresh,
                        NOTIFY_SERVICE,
                        self.notifyd,
                    )?;
                    register_with_launchd(
                        k,
                        fresh,
                        CONFIG_SERVICE,
                        self.configd,
                    )?;
                }
                "notifyd" => {
                    self.notifyd = fresh;
                    // Client delivery rights died with the old space.
                    self.notify_regs.clear();
                    register_with_launchd(
                        k,
                        self.launchd,
                        NOTIFY_SERVICE,
                        fresh,
                    )?;
                }
                _ => {
                    self.configd = fresh;
                    self.config_store.clear();
                    register_with_launchd(
                        k,
                        self.launchd,
                        CONFIG_SERVICE,
                        fresh,
                    )?;
                }
            }
            k.trace_recovery(format!("launchd/respawn({which})"));
            actions.push(format!("respawn({which})"));
        }
        let watched = std::mem::take(&mut self.watched);
        for (label, pid) in watched {
            let dead = match k.process(pid) {
                Err(_) => true,
                Ok(p) => matches!(p.state, ProcessState::Zombie(_)),
            };
            if dead {
                k.trace_recovery(format!("supervisor/dead({label})"));
                actions.push(format!("dead({label})"));
            } else {
                self.watched.push((label, pid));
            }
        }
        Ok(actions)
    }

    /// Gives a client task a send right to launchd's bootstrap port
    /// (every task receives one at creation on real iOS).
    ///
    /// # Errors
    ///
    /// Mach codes from the IPC subsystem.
    pub fn bootstrap_port_for(
        &self,
        k: &mut Kernel,
        pid: Pid,
    ) -> KernResult<PortName> {
        let launchd = self.launchd;
        with_state(k, |_, st| {
            let lspace = st.task_space(launchd.pid);
            let recv = st.machipc.receive_right(lspace, launchd.port)?;
            let send = st.machipc.insert_send(lspace, recv)?;
            let cspace = st.task_space(pid);
            let name = st.machipc.copy_send(lspace, send, cspace)?;
            Ok(name.name())
        })
    }

    /// Runs every daemon's message loop until all queues drain; returns
    /// the number of messages processed.
    pub fn run_pending(&mut self, k: &mut Kernel) -> usize {
        let mut total = 0;
        loop {
            let n = self.step_launchd(k)
                + self.step_notifyd(k)
                + self.step_configd(k);
            if n == 0 {
                return total;
            }
            total += n;
            self.processed += n as u64;
        }
    }

    fn step_launchd(&mut self, k: &mut Kernel) -> usize {
        let d = self.launchd;
        let mut n = 0;
        loop {
            let msg = with_state(k, |k2, st| {
                st.msg_receive_for(k2, d.tid, d.pid, d.port)
            });
            let Ok(msg) = msg else { return n };
            n += 1;
            let name = String::from_utf8_lossy(&msg.body).to_string();
            match msg.msg_id {
                msg_ids::BOOTSTRAP_REGISTER => {
                    if let Some(&port) = msg.ports.first() {
                        with_state(k, |_, st| {
                            st.bootstrap.register(name.clone(), port);
                        });
                    }
                }
                msg_ids::BOOTSTRAP_LOOKUP => {
                    if !msg.reply_port.is_valid() {
                        continue;
                    }
                    let found =
                        with_state(k, |_, st| st.bootstrap.lookup(&name));
                    let reply = match found {
                        Some(service_port) => UserMessage {
                            remote_port: msg.reply_port,
                            remote_disposition: PortDisposition::MoveSendOnce,
                            local_port: PortName::NULL,
                            local_disposition: PortDisposition::MakeSendOnce,
                            msg_id: msg_ids::BOOTSTRAP_LOOKUP_REPLY,
                            body: Bytes::new(),
                            ports: vec![PortDescriptor {
                                name: service_port,
                                disposition: PortDisposition::CopySend,
                            }],
                            ool: Vec::new(),
                        },
                        None => {
                            let mut m = UserMessage::simple(
                                msg.reply_port,
                                msg_ids::BOOTSTRAP_UNKNOWN,
                                Bytes::new(),
                            );
                            m.remote_disposition =
                                PortDisposition::MoveSendOnce;
                            m
                        }
                    };
                    let _ = with_state(k, |k2, st| {
                        st.msg_send_for(k2, d.tid, d.pid, reply)
                    });
                }
                _ => {}
            }
        }
    }

    fn step_notifyd(&mut self, k: &mut Kernel) -> usize {
        let d = self.notifyd;
        let mut n = 0;
        loop {
            let msg = with_state(k, |k2, st| {
                st.msg_receive_for(k2, d.tid, d.pid, d.port)
            });
            let Ok(msg) = msg else { return n };
            n += 1;
            let name = String::from_utf8_lossy(&msg.body).to_string();
            match msg.msg_id {
                msg_ids::NOTIFY_REGISTER => {
                    if let Some(&port) = msg.ports.first() {
                        self.notify_regs.entry(name).or_default().push(port);
                    }
                }
                msg_ids::NOTIFY_POST => {
                    // The fan-out goes through the daemon's trap ring:
                    // every delivery is enqueued without a kernel
                    // crossing, then one batched flush sends them all
                    // (IPC v2's blessed path for service traffic).
                    let targets = self
                        .notify_regs
                        .get(&name)
                        .cloned()
                        .unwrap_or_default();
                    if !targets.is_empty() {
                        with_state(k, |k2, st| {
                            for t in targets {
                                let deliver = UserMessage::simple(
                                    t,
                                    msg_ids::NOTIFY_DELIVER,
                                    Bytes::from(name.clone().into_bytes()),
                                );
                                let _ = st
                                    .ring_mut(d.tid)
                                    .push(RingOp::Send(deliver));
                            }
                            st.ring_flush(k2, d.tid, d.pid);
                            // The daemon has no consumer for its own
                            // completion queue; drain it so ring state
                            // stays bounded across posts.
                            st.ring_mut(d.tid).take_completions();
                        });
                    }
                }
                _ => {}
            }
        }
    }

    fn step_configd(&mut self, k: &mut Kernel) -> usize {
        let d = self.configd;
        let mut n = 0;
        loop {
            let msg = with_state(k, |k2, st| {
                st.msg_receive_for(k2, d.tid, d.pid, d.port)
            });
            let Ok(msg) = msg else { return n };
            n += 1;
            let body = String::from_utf8_lossy(&msg.body).to_string();
            match msg.msg_id {
                msg_ids::CONFIG_SET => {
                    if let Some((key, value)) = body.split_once('=') {
                        self.config_store
                            .insert(key.to_string(), value.to_string());
                    }
                }
                msg_ids::CONFIG_GET => {
                    if !msg.reply_port.is_valid() {
                        continue;
                    }
                    let reply = match self.config_store.get(&body) {
                        Some(v) => {
                            let mut m = UserMessage::simple(
                                msg.reply_port,
                                msg_ids::CONFIG_REPLY,
                                Bytes::from(v.clone().into_bytes()),
                            );
                            m.remote_disposition =
                                PortDisposition::MoveSendOnce;
                            m
                        }
                        None => {
                            let mut m = UserMessage::simple(
                                msg.reply_port,
                                msg_ids::CONFIG_UNKNOWN,
                                Bytes::new(),
                            );
                            m.remote_disposition =
                                PortDisposition::MoveSendOnce;
                            m
                        }
                    };
                    // Replies ride the ring too: configd batches its
                    // outbound traffic like notifyd's fan-out.
                    with_state(k, |k2, st| {
                        let _ = st.ring_mut(d.tid).push(RingOp::Send(reply));
                        st.ring_flush(k2, d.tid, d.pid);
                        st.ring_mut(d.tid).take_completions();
                    });
                }
                _ => {}
            }
        }
    }

    /// configd's current value for a key (observability for tests).
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config_store.get(key).map(|s| s.as_str())
    }
}

/// Client-side helper: performs a `bootstrap_look_up` round trip and
/// returns the service port name in the client's space.
///
/// # Errors
///
/// `KernReturn::InvalidName` when the service is unknown; Mach codes
/// otherwise.
pub fn bootstrap_look_up(
    k: &mut Kernel,
    services: &mut Services,
    client_pid: Pid,
    client_tid: Tid,
    bootstrap_port: PortName,
    name: &str,
) -> KernResult<PortName> {
    // Allocate a reply port and send the lookup.
    let reply_port = with_state(k, |k2, st| {
        st.port_allocate_for(k2, client_tid, client_pid)
    })?;
    let mut msg = UserMessage::simple(
        bootstrap_port,
        msg_ids::BOOTSTRAP_LOOKUP,
        Bytes::from(name.as_bytes().to_vec()),
    );
    msg.local_port = reply_port;
    with_state(k, |k2, st| st.msg_send_for(k2, client_tid, client_pid, msg))?;
    services.run_pending(k);
    let reply = with_state(k, |k2, st| {
        st.msg_receive_for(k2, client_tid, client_pid, reply_port)
    })?;
    match reply.msg_id {
        msg_ids::BOOTSTRAP_LOOKUP_REPLY => {
            reply.ports.first().copied().ok_or(KernReturn::InvalidName)
        }
        _ => Err(KernReturn::InvalidName),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CiderState;
    use cider_kernel::profile::DeviceProfile;

    fn setup() -> (Kernel, Services, Pid, Tid, PortName) {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        k.extensions.insert(CiderState::new());
        let services = Services::boot(&mut k).unwrap();
        let (pid, tid) = k.spawn_process();
        let bp = services.bootstrap_port_for(&mut k, pid).unwrap();
        (k, services, pid, tid, bp)
    }

    #[test]
    fn daemons_boot_with_registered_services() {
        let (mut k, services, ..) = setup();
        with_state(&mut k, |_, st| {
            assert!(st
                .bootstrap
                .lookup("com.apple.system.notification_center")
                .is_some());
            assert!(st
                .bootstrap
                .lookup("com.apple.SystemConfiguration.configd")
                .is_some());
        });
        assert_ne!(services.launchd.pid, services.notifyd.pid);
    }

    #[test]
    fn bootstrap_lookup_roundtrip() {
        let (mut k, mut services, pid, tid, bp) = setup();
        let port = bootstrap_look_up(
            &mut k,
            &mut services,
            pid,
            tid,
            bp,
            "com.apple.system.notification_center",
        )
        .unwrap();
        assert!(port.is_valid());
        assert_eq!(
            bootstrap_look_up(&mut k, &mut services, pid, tid, bp, "nope")
                .unwrap_err(),
            KernReturn::InvalidName
        );
        with_state(&mut k, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn notify_register_and_post() {
        let (mut k, mut services, pid, tid, bp) = setup();
        let notify_port = bootstrap_look_up(
            &mut k,
            &mut services,
            pid,
            tid,
            bp,
            "com.apple.system.notification_center",
        )
        .unwrap();
        // Create a delivery port and register interest.
        let delivery = with_state(&mut k, |k2, st| {
            st.port_allocate_for(k2, tid, pid).unwrap()
        });
        let mut reg = UserMessage::simple(
            notify_port,
            msg_ids::NOTIFY_REGISTER,
            Bytes::from(&b"com.example.event"[..]),
        );
        reg.ports.push(PortDescriptor {
            name: delivery,
            disposition: PortDisposition::MakeSend,
        });
        with_state(&mut k, |k2, st| {
            st.msg_send_for(k2, tid, pid, reg).unwrap()
        });
        services.run_pending(&mut k);

        // Post the event.
        let post = UserMessage::simple(
            notify_port,
            msg_ids::NOTIFY_POST,
            Bytes::from(&b"com.example.event"[..]),
        );
        with_state(&mut k, |k2, st| {
            st.msg_send_for(k2, tid, pid, post).unwrap()
        });
        services.run_pending(&mut k);

        let got = with_state(&mut k, |k2, st| {
            st.msg_receive_for(k2, tid, pid, delivery).unwrap()
        });
        assert_eq!(got.msg_id, msg_ids::NOTIFY_DELIVER);
        assert_eq!(&got.body[..], b"com.example.event");
        with_state(&mut k, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn configd_set_and_get() {
        let (mut k, mut services, pid, tid, bp) = setup();
        let configd = bootstrap_look_up(
            &mut k,
            &mut services,
            pid,
            tid,
            bp,
            "com.apple.SystemConfiguration.configd",
        )
        .unwrap();
        let set = UserMessage::simple(
            configd,
            msg_ids::CONFIG_SET,
            Bytes::from(&b"locale=en_US"[..]),
        );
        with_state(&mut k, |k2, st| {
            st.msg_send_for(k2, tid, pid, set).unwrap()
        });
        services.run_pending(&mut k);
        assert_eq!(services.config_value("locale"), Some("en_US"));

        // Query it back over IPC.
        let reply_port = with_state(&mut k, |k2, st| {
            st.port_allocate_for(k2, tid, pid).unwrap()
        });
        let mut get = UserMessage::simple(
            configd,
            msg_ids::CONFIG_GET,
            Bytes::from(&b"locale"[..]),
        );
        get.local_port = reply_port;
        with_state(&mut k, |k2, st| {
            st.msg_send_for(k2, tid, pid, get).unwrap()
        });
        services.run_pending(&mut k);
        let reply = with_state(&mut k, |k2, st| {
            st.msg_receive_for(k2, tid, pid, reply_port).unwrap()
        });
        assert_eq!(reply.msg_id, msg_ids::CONFIG_REPLY);
        assert_eq!(&reply.body[..], b"en_US");
    }

    #[test]
    fn healthy_daemons_need_no_supervision() {
        let (mut k, mut services, ..) = setup();
        let t0 = k.clock.now_ns();
        assert!(services.supervise(&mut k).unwrap().is_empty());
        // No deaths → no backoff charged.
        assert_eq!(k.clock.now_ns(), t0);
        assert_eq!(services.supervisor.restarts_of("notifyd"), 0);
    }

    #[test]
    fn dead_notifyd_is_respawned_with_backoff() {
        let (mut k, mut services, pid, tid, bp) = setup();
        let old = services.notifyd;
        k.sys_exit(old.tid, 1).unwrap();
        let t0 = k.clock.now_ns();
        let actions = services.supervise(&mut k).unwrap();
        assert_eq!(actions, vec!["respawn(notifyd)".to_string()]);
        assert_ne!(services.notifyd.pid, old.pid);
        assert!(k.clock.now_ns() - t0 >= services.supervisor.backoff_base_ns);
        assert_eq!(services.supervisor.restarts_of("notifyd"), 1);
        // The respawned daemon serves lookups again.
        let port = bootstrap_look_up(
            &mut k,
            &mut services,
            pid,
            tid,
            bp,
            NOTIFY_SERVICE,
        )
        .unwrap();
        assert!(port.is_valid());
        with_state(&mut k, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn dead_launchd_rebuilds_the_registry() {
        let (mut k, mut services, pid, tid, ..) = setup();
        let old = services.launchd;
        k.sys_exit(old.tid, 1).unwrap();
        let actions = services.supervise(&mut k).unwrap();
        assert_eq!(actions, vec!["respawn(launchd)".to_string()]);
        // Both services must be reachable through the new launchd.
        let bp = services.bootstrap_port_for(&mut k, pid).unwrap();
        for name in [NOTIFY_SERVICE, CONFIG_SERVICE] {
            bootstrap_look_up(&mut k, &mut services, pid, tid, bp, name)
                .unwrap();
        }
        with_state(&mut k, |_, st| st.machipc.check_invariants());
    }

    #[test]
    fn restart_budget_is_enforced() {
        let (mut k, mut services, ..) = setup();
        services.supervisor.max_restarts = 2;
        for _ in 0..2 {
            k.sys_exit(services.configd.tid, 9).unwrap();
            services.supervise(&mut k).unwrap();
        }
        k.sys_exit(services.configd.tid, 9).unwrap();
        assert_eq!(
            services.supervise(&mut k).unwrap_err(),
            ServiceError::RestartLimit { daemon: "configd" }
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let (mut k, mut services, ..) = setup();
        let base = services.supervisor.backoff_base_ns;
        let mut last = 0;
        for round in 0..3 {
            k.sys_exit(services.notifyd.tid, 9).unwrap();
            let t0 = k.clock.now_ns();
            services.supervise(&mut k).unwrap();
            let waited_at_least = base << round;
            let waited = k.clock.now_ns() - t0;
            assert!(
                waited >= waited_at_least,
                "round {round}: waited {waited} < {waited_at_least}"
            );
            assert!(waited > last || round == 0);
            last = waited;
        }
    }

    #[test]
    fn watched_externals_are_reported_not_respawned() {
        let (mut k, mut services, ..) = setup();
        let (cp_pid, cp_tid) = k.spawn_process();
        services.watch("CiderPress", cp_pid);
        assert!(services.supervise(&mut k).unwrap().is_empty());
        k.sys_exit(cp_tid, 0).unwrap();
        let actions = services.supervise(&mut k).unwrap();
        assert_eq!(actions, vec!["dead(CiderPress)".to_string()]);
        // Reported once, then forgotten.
        assert!(services.supervise(&mut k).unwrap().is_empty());
    }
}
