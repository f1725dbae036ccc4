// Package memdos is a simulation-backed reproduction of "Impact of Memory
// DoS Attacks on Cloud Applications and Real-Time Detection Schemes"
// (Li, Sen, Shen, Chuah — ICPP 2020 / IEEE-ACM ToN 2022).
//
// It provides, end to end and with no dependencies beyond the standard
// library:
//
//   - a virtualized-server substrate (set-associative LLC, lockable memory
//     bus, NUMA DRAM memory controller, VM scheduler with execution
//     throttling, PCM-style hardware counters),
//   - the two memory DoS attacks (atomic bus locking, LLC cleansing with
//     its probing phase), the paper's adaptive attack schedule, and a
//     beyond-the-paper DRAM bandwidth hog,
//   - counter-process models of the paper's ten cloud applications,
//   - the detection schemes: SDS/B, SDS/P, combined SDS, the LSTM-FCN
//     cascade DNN detector (including a from-scratch deep-learning stack),
//     and the prior-work KStest baseline, and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// This file is a façade re-exporting the high-level API; the
// implementation lives under internal/. See README.md for a tour and
// examples/ for runnable programs.
package memdos

import (
	"memdos/internal/attack"
	"memdos/internal/cluster"
	"memdos/internal/container"
	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/mem"
	"memdos/internal/metrics"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// Detection schemes (Sections IV and V).
type (
	// Detector is a real-time memory-DoS detection scheme consuming PCM
	// samples.
	Detector = core.Detector
	// Params is the Table I parameter set shared by the schemes.
	Params = core.Params
	// Profile is an application's attack-free counter profile.
	Profile = core.Profile
	// SDS is the combined boundary+period statistical scheme.
	SDS = core.SDS
	// SDSB is the boundary-based scheme alone.
	SDSB = core.SDSB
	// SDSP is the period-based scheme alone.
	SDSP = core.SDSP
	// KSTestDetector is the prior-work baseline (Zhang et al.).
	KSTestDetector = core.KSTestDetector
	// KSParams configures the baseline's protocol.
	KSParams = core.KSParams
	// DNNDetector wraps a trained LSTM-FCN cascade.
	DNNDetector = core.DNNDetector
	// SDSU is the utilization-correlated, profile-free extension for
	// dynamic applications (the paper's Section VIII future work).
	SDSU = core.SDSU
	// Decision is one dated alarm verdict.
	Decision = core.Decision
	// Ensemble combines detectors under a vote rule (Section VII's
	// deployment discussion as a first-class detector).
	Ensemble = core.Ensemble
	// Incident is one contiguous alarm episode.
	Incident = core.Incident
)

// Ensemble vote rules.
const (
	VoteAny      = core.Any
	VoteAll      = core.All
	VoteMajority = core.Majority
)

// Default and baseline parameter constructors.
var (
	// DefaultParams returns the paper's Table I values.
	DefaultParams = core.DefaultParams
	// DefaultKSParams is the Section III-B baseline protocol.
	DefaultKSParams = core.DefaultKSParams
	// EvaluationKSParams is the Section VI baseline cadence.
	EvaluationKSParams = core.EvaluationKSParams
	// BuildProfile derives a Profile from attack-free counter samples.
	BuildProfile = core.BuildProfile
	// NewSDS builds the combined detector from a profile.
	NewSDS = core.NewSDS
	// NewSDSB builds the boundary detector.
	NewSDSB = core.NewSDSB
	// NewSDSP builds the period detector (periodic profiles only).
	NewSDSP = core.NewSDSP
	// NewKSTestDetector builds the baseline.
	NewKSTestDetector = core.NewKSTestDetector
	// NewDNNDetector builds the DNN detector from a trained cascade.
	NewDNNDetector = core.NewDNNDetector
	// NewSDSU builds the utilization-correlated extension detector.
	NewSDSU = core.NewSDSU
	// LoadCascade reloads a cascade saved with (*Cascade).Save.
	LoadCascade = dnn.LoadCascade
	// NewEnsemble combines detectors under a vote rule.
	NewEnsemble = core.NewEnsemble
	// Incidents folds a decision time-line into alarm episodes.
	Incidents = core.Incidents
	// MergeIncidents joins episodes separated by short gaps.
	MergeIncidents = core.MergeIncidents
)

// Detector state management (live serving support).
type (
	// Resetter is implemented by detectors whose state can be cleared in
	// place (e.g. after a VM migration invalidates history).
	Resetter = core.Resetter
	// Snapshotter is implemented by detectors exposing internal state for
	// inspection.
	Snapshotter = core.Snapshotter
)

var (
	// ResetDetector clears a detector's state if it supports Reset.
	ResetDetector = core.ResetDetector
	// SnapshotDetector returns a detector's state snapshot, or nil.
	SnapshotDetector = core.SnapshotDetector
)

// Always-on streaming detection service (internal/stream, served by
// cmd/memdosd).
type (
	// StreamHub is the multi-tenant streaming detection hub.
	StreamHub = stream.Hub
	// StreamConfig configures a hub.
	StreamConfig = stream.Config
	// StreamPolicy is the full-queue backpressure policy.
	StreamPolicy = stream.Policy
	// StreamSessionInfo is a point-in-time view of one session.
	StreamSessionInfo = stream.SessionInfo
	// AlarmEvent is one alarm raise/clear delivered to subscribers.
	AlarmEvent = stream.AlarmEvent
	// IngestRequest is the wire form of a batched ingest call.
	IngestRequest = stream.IngestRequest
	// IngestBatch is one session's samples within an IngestRequest.
	IngestBatch = stream.IngestBatch
)

// Full-queue policies.
const (
	// StreamDropNewest drops incoming samples when a session queue is full.
	StreamDropNewest = stream.DropNewest
	// StreamBlock applies backpressure to the producer instead.
	StreamBlock = stream.Block
)

var (
	// NewStreamHub builds a streaming hub and starts its worker shards.
	NewStreamHub = stream.NewHub
	// DefaultStreamConfig returns serving defaults.
	DefaultStreamConfig = stream.DefaultConfig
	// DecodeIngest parses and validates a JSON ingest request body.
	DecodeIngest = stream.DecodeIngest
	// AcquireIngestRequest returns a pooled request for DecodeIngestInto.
	AcquireIngestRequest = stream.AcquireIngestRequest
	// DecodeIngestInto parses an ingest body into a reused request.
	DecodeIngestInto = stream.DecodeIngestInto
	// ReleaseIngestRequest recycles a request from AcquireIngestRequest.
	ReleaseIngestRequest = stream.ReleaseIngestRequest
)

// Fleet-scale binary ingest wire format (pcm frames carried by
// POST /v1/ingest/stream; see DESIGN.md §7b).
var (
	// AppendBatch encodes one session's batch as a length-prefixed
	// binary frame appended to dst.
	AppendBatch = pcm.AppendBatch
	// DecodeBatchInto decodes one frame body into a reused sample slice
	// with zero allocations.
	DecodeBatchInto = pcm.DecodeBatchInto
	// NewFrameReader reads length-prefixed frames off a stream into one
	// reused buffer.
	NewFrameReader = pcm.NewFrameReader
	// ReadGCStats snapshots the runtime's GC pause/cycle counters.
	ReadGCStats = metrics.ReadGCStats
)

// FrameReader reads length-prefixed binary ingest frames.
type FrameReader = pcm.FrameReader

// GCStats is a snapshot of the runtime's GC accounting.
type GCStats = metrics.GCStats

// NewDaemonServer assembles memdosd's HTTP serving layer (JSON +
// binary-streaming ingest, session API, metrics) around a hub and an
// optional mitigation engine.
var NewDaemonServer = daemon.New

// DaemonServer is memdosd's HTTP serving layer.
type DaemonServer = daemon.Server

// Closed-loop mitigation (internal/respond): the policy engine that
// turns stream alarms into graduated, reversible hypervisor actions.
type (
	// RespondEngine escalates suspect VMs through the mitigation ladder
	// (throttle steps, cache partition, migration) and backs off with
	// hysteresis.
	RespondEngine = respond.Engine
	// RespondConfig parameterizes the ladder and its timing.
	RespondConfig = respond.Config
	// RespondActuator applies mitigation to a hypervisor.
	RespondActuator = respond.Actuator
	// RespondSessionState is one session's mitigation state.
	RespondSessionState = respond.SessionState
	// RespondAction is one recorded policy transition.
	RespondAction = respond.Action
	// RespondLogActuator records would-be actions instead of applying
	// them (memdosd stand-alone mode).
	RespondLogActuator = respond.LogActuator
	// RespondMigrateResult reports where an actuator migrated a victim.
	RespondMigrateResult = respond.MigrateResult
)

// RespondForceNone unpins an operator-forced mitigation level.
const RespondForceNone = respond.ForceNone

// Recorded mitigation action kinds (RespondAction.Action values).
const (
	// RespondActionThrottle is an execution-throttle rung.
	RespondActionThrottle = respond.ActionThrottle
	// RespondActionBandwidth is the MemGuard-style DRAM bandwidth-budget
	// rung (requires RespondConfig.EnableBandwidth).
	RespondActionBandwidth = respond.ActionBandwidth
	// RespondActionPartition is the cache-partition rung.
	RespondActionPartition = respond.ActionPartition
	// RespondActionMigrate is the terminal migration rung.
	RespondActionMigrate = respond.ActionMigrate
	// RespondActionRelease is a hysteresis-driven back-off.
	RespondActionRelease = respond.ActionRelease
)

var (
	// NewRespondEngine builds a mitigation engine over an actuator.
	NewRespondEngine = respond.New
	// DefaultRespondConfig is the conservative default ladder.
	DefaultRespondConfig = respond.DefaultConfig
	// AttachRespond pumps a hub's alarm feed into an engine.
	AttachRespond = respond.Attach
	// NewRespondLogActuator builds a recording actuator.
	NewRespondLogActuator = respond.NewLogActuator
)

// Simulated testbed (substrates).
type (
	// Server is the simulated physical machine (hypervisor + VMs).
	Server = vmm.Server
	// ServerConfig configures a Server.
	ServerConfig = vmm.Config
	// VM is one virtual machine.
	VM = vmm.VM
	// ServerStep is one simulation step's completed PCM samples; its
	// Sample(vm.ID()) method returns a VM's sample, if it completed one.
	// It is valid only inside the step callback.
	ServerStep = vmm.StepResult
	// Sample is one PCM counter observation.
	Sample = pcm.Sample
	// WorkloadSpec statically describes an application model.
	WorkloadSpec = workload.Spec
	// Attacker is a configured attack program.
	Attacker = attack.Attacker
	// AttackSchedule decides when the attack is enabled.
	AttackSchedule = attack.Schedule
	// NUMAConfig parameterizes the DRAM memory-controller model
	// (ServerConfig.Mem; nil keeps the legacy LLC-only server).
	NUMAConfig = mem.NUMAConfig
	// MemController is the standalone DRAM memory-controller model.
	MemController = mem.Controller
	// MemStats is one owner's cumulative delivered-DRAM view.
	MemStats = mem.Stats
)

// Testbed constructors and registries.
var (
	// NewServer builds a simulated server.
	NewServer = vmm.NewServer
	// DefaultServerConfig matches the paper's testbed (T_PCM = 0.01 s).
	DefaultServerConfig = vmm.DefaultConfig
	// Workloads returns the ten application models of Table II.
	Workloads = workload.All
	// WorkloadByAbbrev resolves a Table II abbreviation.
	WorkloadByAbbrev = workload.ByAbbrev
	// NewBusLockAttack builds the atomic bus locking attacker.
	NewBusLockAttack = attack.NewBusLock
	// NewLLCCleansingAttack builds the LLC cleansing attacker.
	NewLLCCleansingAttack = attack.NewLLCCleansing
	// NewMemBandwidthAttack builds the DRAM bandwidth-hog attacker
	// (requires a server configured with a NUMAConfig).
	NewMemBandwidthAttack = attack.NewMemBandwidth
	// NewAdaptiveSchedule builds the Scenario 2 on/off schedule.
	NewAdaptiveSchedule = attack.NewAdaptive
	// DefaultNUMAConfig returns the reference DRAM topology for a socket
	// count (two 12.8 GB/s channels per socket).
	DefaultNUMAConfig = mem.DefaultNUMAConfig
	// NewMemController builds a standalone DRAM memory-controller model.
	NewMemController = mem.New
)

// Attack schedule values.
type (
	// AttackWindow enables the attack during [Start, End).
	AttackWindow = attack.Window
	// AlwaysAttack keeps the attack enabled.
	AlwaysAttack = attack.Always
	// NeverAttack disables the attack.
	NeverAttack = attack.Never
)

// Multi-host datacenter (internal/cluster): many simulated servers in
// deterministic lockstep, with placement scheduling, attacker co-location
// strategies, and real VM migration as the respond ladder's last rung.
type (
	// Cluster is the simulated multi-host datacenter.
	Cluster = cluster.Cluster
	// ClusterConfig sizes and parameterizes a cluster.
	ClusterConfig = cluster.Config
	// ClusterResult summarizes one cluster run.
	ClusterResult = cluster.Result
	// SchedulerPolicy selects how the cluster places and evacuates VMs.
	SchedulerPolicy = cluster.SchedulerPolicy
	// AttackerPolicy selects the attackers' co-location strategy.
	AttackerPolicy = cluster.AttackerPolicy
	// ClusterStudySpec sizes the placement x scheduling study.
	ClusterStudySpec = experiments.ClusterStudySpec
	// ClusterStudyResult is the study's full policy grid.
	ClusterStudyResult = experiments.ClusterStudyResult
	// ClusterCell is one policy combination's outcome.
	ClusterCell = experiments.ClusterCell
)

// Scheduler and attacker placement policies.
const (
	// ScheduleRoundRobin rotates new VMs across hosts.
	ScheduleRoundRobin = cluster.RoundRobin
	// ScheduleBinPack consolidates onto the fewest hosts under a cap.
	ScheduleBinPack = cluster.BinPack
	// ScheduleSpread places on the least-contended host by observed speed.
	ScheduleSpread = cluster.Spread
	// PlaceAttackersRandom lets attackers land like any other VM.
	PlaceAttackersRandom = cluster.AttackRandom
	// PlaceAttackersTargeted re-co-locates attackers with their victims.
	PlaceAttackersTargeted = cluster.AttackTargeted
	// PlaceAttackersChurn relocates attackers on a fixed period.
	PlaceAttackersChurn = cluster.AttackChurn
)

var (
	// NewCluster builds a multi-host datacenter simulation.
	NewCluster = cluster.New
	// DefaultClusterConfig returns a small deterministic cluster.
	DefaultClusterConfig = cluster.DefaultConfig
	// ClusterStudy runs the attacker-placement x scheduler-policy grid.
	ClusterStudy = experiments.ClusterStudy
	// DefaultClusterStudySpec sizes a small-but-meaningful study.
	DefaultClusterStudySpec = experiments.DefaultClusterStudySpec
)

// DNN stack (Section V).
type (
	// Cascade is the two-stage LSTM-FCN classifier of Fig. 10.
	Cascade = dnn.Cascade
	// CascadeSample is one labelled training window.
	CascadeSample = dnn.CascadeSample
	// TrainConfig controls training.
	TrainConfig = dnn.TrainConfig
)

// DNN constructors.
var (
	// NewCascade builds an untrained cascade.
	NewCascade = dnn.NewCascade
	// SetDNNKernelWorkers sets the worker count of the DNN stack's
	// tile-parallel GEMM kernels and returns the previous value. Any
	// value produces byte-identical results; workers only change wall
	// time.
	SetDNNKernelWorkers = dnn.SetKernelWorkers
	// TrainCascadeModel fits a cascade on labelled windows.
	TrainCascadeModel = dnn.TrainCascade
	// PaperLSTMFCNConfig is the paper's full-size architecture.
	PaperLSTMFCNConfig = dnn.PaperLSTMFCNConfig
	// CompactLSTMFCNConfig is the CPU-scale architecture.
	CompactLSTMFCNConfig = dnn.CompactLSTMFCNConfig
	// DefaultDNNTrainConfig returns CPU-friendly training settings.
	DefaultDNNTrainConfig = dnn.DefaultTrainConfig
)

// Evaluation (Section VI).
type (
	// Confusion is a binary confusion matrix.
	Confusion = metrics.Confusion
	// Interval is a ground-truth attack span.
	Interval = metrics.Interval
	// RunSpec describes one experiment run.
	RunSpec = experiments.RunSpec
	// RunResult is one run's decisions, truth and counter traces.
	RunResult = experiments.RunResult
	// Accuracy is a scored decision time-line.
	Accuracy = experiments.Accuracy
	// AttackMode selects the attack for a run.
	AttackMode = experiments.AttackMode
	// ExperimentEnv hands detector factories the run environment.
	ExperimentEnv = experiments.Env
	// DetectorFactory builds a detector for a concrete run.
	DetectorFactory = experiments.DetectorFactory
	// ClosedLoopSpec configures the closed-loop mitigation study.
	ClosedLoopSpec = experiments.ClosedLoopSpec
	// ClosedLoopResult reports recovered performance under mitigation.
	ClosedLoopResult = experiments.ClosedLoopResult
	// BandwidthSpec sizes the DRAM bandwidth-hog study.
	BandwidthSpec = experiments.BandwidthSpec
	// BandwidthResult is the study's detection matrix + closed loops.
	BandwidthResult = experiments.BandwidthResult
	// BandwidthCell is one (topology, placement, detector) score.
	BandwidthCell = experiments.BandwidthCell
	// BandwidthLoop is one placement's three closed-loop ladder variants.
	BandwidthLoop = experiments.BandwidthLoop
)

// Attack modes for RunSpec.
const (
	NoAttack     = experiments.NoAttack
	BusLock      = experiments.BusLock
	LLCCleansing = experiments.Cleansing
	MemBandwidth = experiments.MemBW
)

// Experiment harness entry points.
var (
	// RunExperiment executes one configured run.
	RunExperiment = experiments.Run
	// DefaultRunSpec builds a Scenario 1 run.
	DefaultRunSpec = experiments.DefaultRunSpec
	// ProfileApplication profiles an app on a clean server.
	ProfileApplication = experiments.ProfileApp
	// ScoreRun scores one detector's output against ground truth.
	ScoreRun = experiments.Score
	// Evaluate scores a decision time-line directly.
	Evaluate = metrics.Evaluate
	// DetectionDelay extracts per-attack detection delays.
	DetectionDelay = metrics.DetectionDelay
	// SDSDetectorFactory builds SDS for an experiment run.
	SDSDetectorFactory = experiments.SDSFactory
	// KSDetectorFactory builds the KStest baseline wired to throttling.
	KSDetectorFactory = experiments.KSFactory
	// DNNDetectorFactory builds the DNN detector (trains the shared
	// cascade on first use).
	DNNDetectorFactory = experiments.DNNFactory
	// CompareDetectors reproduces the Figs. 11-16 comparisons.
	CompareDetectors = experiments.CompareDetectors
	// MigrationStudy quantifies why migration alone cannot defeat the
	// attacks (Section II).
	MigrationStudy = experiments.MigrationStudy
	// ClosedLoopStudy runs attacker + victim with the respond engine in
	// the loop and reports the victim's recovered performance.
	ClosedLoopStudy = experiments.ClosedLoop
	// DefaultClosedLoopSpec configures the study for one app and attack.
	DefaultClosedLoopSpec = experiments.DefaultClosedLoopSpec
	// BandwidthStudy runs the DRAM bandwidth-hog study: detector scoring
	// plus the closed loop with the membw-limit rung, on 1- and
	// multi-socket NUMA topologies.
	BandwidthStudy = experiments.BandwidthStudy
	// DefaultBandwidthSpec sizes the study for one application.
	DefaultBandwidthSpec = experiments.DefaultBandwidthSpec
	// ContainerStudy runs the Section VIII serverless future-work
	// scenario.
	ContainerStudy = experiments.ContainerStudy
	// ReplayDetector re-runs a detector over a recorded counter trace.
	ReplayDetector = experiments.Replay
)

// Container substrate (Section VIII future work).
type (
	// ContainerPlatform is a container host with function churn.
	ContainerPlatform = container.Platform
	// FunctionSpec describes one deployed function.
	FunctionSpec = container.FunctionSpec
)

// Container constructors.
var (
	// NewContainerPlatform builds a container host.
	NewContainerPlatform = container.NewPlatform
	// DefaultContainerConfig mirrors the VM testbed parameters.
	DefaultContainerConfig = container.DefaultConfig
	// NewWorkloadBuilder starts a custom application spec.
	NewWorkloadBuilder = workload.NewBuilder
)
