//! The quantum cloud: a fleet of devices sharing one simulation.

use crate::broker::{CloudView, DeviceView};
use crate::device::{DeviceId, QDevice};
use qcs_calibration::{DeviceProfile, ErrorScoreWeights};
use qcs_desim::Simulation;

/// The device fleet (paper's `QCloud`): owns the registered devices and
/// builds the per-decision snapshot ([`CloudView`]) brokers consume.
#[derive(Debug)]
pub struct QCloud {
    devices: Vec<QDevice>,
}

impl QCloud {
    /// Registers every profile as a device in `sim`.
    pub fn new(
        profiles: Vec<DeviceProfile>,
        weights: &ErrorScoreWeights,
        sim: &mut Simulation,
    ) -> Self {
        assert!(!profiles.is_empty(), "a cloud needs at least one device");
        let devices = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| QDevice::register(DeviceId(i as u32), p, weights, sim))
            .collect();
        QCloud { devices }
    }

    /// Devices in the fleet.
    pub fn devices(&self) -> &[QDevice] {
        &self.devices
    }

    /// Mutable device access (drift studies).
    pub fn devices_mut(&mut self) -> &mut [QDevice] {
        &mut self.devices
    }

    /// Device lookup.
    pub fn device(&self, id: DeviceId) -> &QDevice {
        &self.devices[id.index()]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total qubit capacity across the fleet.
    pub fn total_capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity()).sum()
    }

    /// Gives the registered profiles back, in device order.
    pub(crate) fn into_profiles(self) -> Vec<DeviceProfile> {
        self.devices.into_iter().map(|d| d.profile).collect()
    }

    /// Largest single-device capacity.
    pub fn max_device_capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity()).max().unwrap_or(0)
    }

    /// Builds the broker-facing snapshot of the fleet state.
    pub fn view(&self, sim: &Simulation) -> CloudView {
        let now = sim.now();
        CloudView {
            devices: self
                .devices
                .iter()
                .map(|d| {
                    let c = sim.container(d.container);
                    DeviceView {
                        id: d.id,
                        free: c.level(),
                        capacity: c.capacity(),
                        busy_fraction: c.busy_fraction(),
                        mean_utilization: c.mean_utilization(now),
                        error_score: d.error_score,
                        clops: d.clops(),
                        qv_layers: d.qv_layers(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    #[test]
    fn fleet_capacities() {
        let mut sim = Simulation::new(1);
        let cloud = QCloud::new(ibm_fleet(1), &ErrorScoreWeights::default(), &mut sim);
        assert_eq!(cloud.len(), 5);
        assert_eq!(cloud.total_capacity(), 635);
        assert_eq!(cloud.max_device_capacity(), 127);
        assert!(!cloud.is_empty());
    }

    #[test]
    fn view_reflects_withdrawals() {
        let mut sim = Simulation::new(2);
        let cloud = QCloud::new(ibm_fleet(2), &ErrorScoreWeights::default(), &mut sim);
        let v0 = cloud.view(&sim);
        assert!(v0.devices.iter().all(|d| d.free == 127));
        sim.withdraw(cloud.device(DeviceId(1)).container, 100);
        let v1 = cloud.view(&sim);
        assert_eq!(v1.devices[1].free, 27);
        assert!((v1.devices[1].busy_fraction - 100.0 / 127.0).abs() < 1e-12);
        assert_eq!(v1.devices[0].free, 127);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cloud_rejected() {
        let mut sim = Simulation::new(3);
        let _ = QCloud::new(vec![], &ErrorScoreWeights::default(), &mut sim);
    }
}
