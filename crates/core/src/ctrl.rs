//! Controller ↔ Yoda-instance control messages.
//!
//! The paper's controller components talk to instances over RESTful APIs
//! (§6); the simulation equivalent is a line-oriented text protocol in
//! `PROTO_CTRL` packets. Text keeps the rule
//! DSL (§5.1) embeddable verbatim — the controller's *user interface*
//! component "converts the user policies expressed using the YODA
//! interface into the rules and sends them to the YODA instances".

use bytes::Bytes;
use yoda_netsim::{Addr, Endpoint, Packet, PROTO_CTRL};

use crate::rules::RuleTable;

/// Port instances/controller listen on for control traffic.
pub const CTRL_PORT: u16 = 4242;

/// A control message.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceCtrl {
    /// Install (replace) the rule table for a VIP on an instance.
    InstallVip {
        /// The VIP.
        vip: Endpoint,
        /// The controller's version of the VIP. Instances ignore an
        /// install or remove older than the last one they applied for the
        /// VIP: two messages sent in the same instant can arrive in either
        /// order (per-hop jitter).
        version: u64,
        /// Rule DSL text (see [`RuleTable::parse`]).
        rules_text: String,
        /// SSL termination: total certificate length to send to clients
        /// (§5.2); `None` = plain HTTP.
        ssl_cert_len: Option<u32>,
    },
    /// Remove a VIP and its rules from an instance.
    RemoveVip {
        /// The VIP.
        vip: Endpoint,
        /// The controller's version of the VIP (see `InstallVip`).
        version: u64,
    },
    /// A backend server was declared dead by the monitor.
    BackendDown {
        /// The backend.
        backend: Endpoint,
    },
    /// A backend server came (back) up.
    BackendUp {
        /// The backend.
        backend: Endpoint,
    },
    /// Give the instance the live mux list (for SNAT egress).
    SetMuxes {
        /// Mux addresses.
        muxes: Vec<Addr>,
    },
    /// Controller asks for statistics.
    StatsRequest {
        /// Correlation id.
        seq: u64,
    },
    /// Instance statistics reply.
    StatsReply {
        /// Correlation id echoed.
        seq: u64,
        /// CPU utilisation ×1000 over the last window.
        cpu_milli: u32,
        /// Live flows on the instance.
        flows: u64,
        /// Requests seen per VIP since the last stats request.
        per_vip_requests: Vec<(Endpoint, u64)>,
    },
}

fn parse_endpoint(s: &str) -> Option<Endpoint> {
    let (addr, port) = s.rsplit_once(':')?;
    let port: u16 = port.parse().ok()?;
    Some(Endpoint::new(parse_addr(addr)?, port))
}

fn parse_version(s: &str) -> Option<u64> {
    s.strip_prefix("v=")?.parse().ok()
}

fn parse_addr(s: &str) -> Option<Addr> {
    let o: Vec<u8> = s
        .split('.')
        .map(|x| x.parse().ok())
        .collect::<Option<Vec<u8>>>()?;
    let [a, b, c, d] = o.as_slice() else {
        return None;
    };
    Some(Addr::new(*a, *b, *c, *d))
}

impl InstanceCtrl {
    /// Serializes to the wire text.
    pub fn encode(&self) -> Bytes {
        let text = match self {
            InstanceCtrl::InstallVip {
                vip,
                version,
                rules_text,
                ssl_cert_len,
            } => match ssl_cert_len {
                Some(len) => format!("install-vip {vip} v={version} ssl={len}\n{rules_text}"),
                None => format!("install-vip {vip} v={version}\n{rules_text}"),
            },
            InstanceCtrl::RemoveVip { vip, version } => format!("remove-vip {vip} v={version}"),
            InstanceCtrl::BackendDown { backend } => format!("backend-down {backend}"),
            InstanceCtrl::BackendUp { backend } => format!("backend-up {backend}"),
            InstanceCtrl::SetMuxes { muxes } => {
                let list: Vec<String> = muxes.iter().map(|m| m.to_string()).collect();
                format!("set-muxes {}", list.join(" "))
            }
            InstanceCtrl::StatsRequest { seq } => format!("stats-request {seq}"),
            InstanceCtrl::StatsReply {
                seq,
                cpu_milli,
                flows,
                per_vip_requests,
            } => {
                let mut s = format!("stats-reply {seq} {cpu_milli} {flows}");
                for (vip, reqs) in per_vip_requests {
                    s.push_str(&format!("\n{vip} {reqs}"));
                }
                s
            }
        };
        Bytes::from(text)
    }

    /// Parses the wire text; `None` on malformed input.
    pub fn decode(b: &Bytes) -> Option<InstanceCtrl> {
        let text = std::str::from_utf8(b).ok()?;
        let (first, rest) = match text.split_once('\n') {
            Some((f, r)) => (f, r),
            None => (text, ""),
        };
        let mut parts = first.split(' ');
        match parts.next()? {
            "install-vip" => {
                let vip = parse_endpoint(parts.next()?)?;
                let version = parse_version(parts.next()?)?;
                let ssl_cert_len = match parts.next() {
                    Some(tok) => Some(tok.strip_prefix("ssl=")?.parse().ok()?),
                    None => None,
                };
                // Validate that the rules parse.
                RuleTable::parse(rest)?;
                Some(InstanceCtrl::InstallVip {
                    vip,
                    version,
                    rules_text: rest.to_string(),
                    ssl_cert_len,
                })
            }
            "remove-vip" => Some(InstanceCtrl::RemoveVip {
                vip: parse_endpoint(parts.next()?)?,
                version: parse_version(parts.next()?)?,
            }),
            "backend-down" => Some(InstanceCtrl::BackendDown {
                backend: parse_endpoint(parts.next()?)?,
            }),
            "backend-up" => Some(InstanceCtrl::BackendUp {
                backend: parse_endpoint(parts.next()?)?,
            }),
            "set-muxes" => {
                let muxes = parts.map(parse_addr).collect::<Option<Vec<Addr>>>()?;
                Some(InstanceCtrl::SetMuxes { muxes })
            }
            "stats-request" => Some(InstanceCtrl::StatsRequest {
                seq: parts.next()?.parse().ok()?,
            }),
            "stats-reply" => {
                let seq = parts.next()?.parse().ok()?;
                let cpu_milli = parts.next()?.parse().ok()?;
                let flows = parts.next()?.parse().ok()?;
                let mut per_vip_requests = Vec::new();
                for line in rest.lines() {
                    if line.is_empty() {
                        continue;
                    }
                    let (ep, n) = line.split_once(' ')?;
                    per_vip_requests.push((parse_endpoint(ep)?, n.parse().ok()?));
                }
                Some(InstanceCtrl::StatsReply {
                    seq,
                    cpu_milli,
                    flows,
                    per_vip_requests,
                })
            }
            _ => None,
        }
    }

    /// Wraps the message in a control packet.
    pub fn into_packet(self, src: Endpoint, dst: Addr) -> Packet {
        Packet::new(src, Endpoint::new(dst, CTRL_PORT), PROTO_CTRL, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: InstanceCtrl) {
        let decoded = InstanceCtrl::decode(&msg.encode()).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let backend = Endpoint::new(Addr::new(10, 1, 0, 2), 80);
        roundtrip(InstanceCtrl::InstallVip {
            vip,
            version: 1,
            rules_text: "name=r priority=1 match url=*.jpg action=split 10.1.0.2:80=1"
                .to_string(),
            ssl_cert_len: None,
        });
        roundtrip(InstanceCtrl::InstallVip {
            vip,
            version: u64::MAX,
            rules_text: "name=r priority=1 match * action=split 10.1.0.2:80=1".to_string(),
            ssl_cert_len: Some(3000),
        });
        roundtrip(InstanceCtrl::RemoveVip { vip, version: 7 });
        roundtrip(InstanceCtrl::BackendDown { backend });
        roundtrip(InstanceCtrl::BackendUp { backend });
        roundtrip(InstanceCtrl::SetMuxes {
            muxes: vec![Addr::new(10, 0, 2, 1), Addr::new(10, 0, 2, 2)],
        });
        roundtrip(InstanceCtrl::StatsRequest { seq: 9 });
        roundtrip(InstanceCtrl::StatsReply {
            seq: 9,
            cpu_milli: 423,
            flows: 812,
            per_vip_requests: vec![(vip, 1000), (Endpoint::new(Addr::new(100, 0, 0, 2), 80), 5)],
        });
    }

    #[test]
    fn install_rejects_bad_rules() {
        let raw = Bytes::from_static(b"install-vip 100.0.0.1:80 v=1\nnot a rule");
        assert!(InstanceCtrl::decode(&raw).is_none());
    }

    #[test]
    fn vip_messages_require_a_version() {
        let rules = "\nname=r priority=1 match * action=split 10.1.0.2:80=1";
        for raw in [
            format!("install-vip 100.0.0.1:80{rules}"),
            format!("install-vip 100.0.0.1:80 ssl=3000{rules}"),
            format!("install-vip 100.0.0.1:80 v=x{rules}"),
            "remove-vip 100.0.0.1:80".to_string(),
            "remove-vip 100.0.0.1:80 v=-1".to_string(),
        ] {
            assert!(
                InstanceCtrl::decode(&Bytes::from(raw.clone())).is_none(),
                "{raw}"
            );
        }
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(InstanceCtrl::decode(&Bytes::from_static(b"frobnicate 1")).is_none());
        assert!(InstanceCtrl::decode(&Bytes::from_static(b"")).is_none());
    }

    #[test]
    fn multi_rule_install_roundtrip() {
        let rules = "name=a priority=3 match url=*.jpg action=split 10.1.0.2:80=1\n\
                     name=b priority=1 match * action=leastload 10.1.0.3:80";
        roundtrip(InstanceCtrl::InstallVip {
            vip: Endpoint::new(Addr::new(100, 0, 0, 7), 80),
            version: 3,
            rules_text: rules.to_string(),
            ssl_cert_len: None,
        });
    }
}
