// Tests for the Banzai machine substrate: packets, state, and the
// cycle-accurate pipeline simulator.
#include <gtest/gtest.h>

#include <memory>

#include "banzai/kernel.h"
#include "banzai/machine.h"
#include "banzai/packet.h"
#include "banzai/sim.h"
#include "banzai/state.h"

namespace banzai {
namespace {

TEST(FieldTableTest, InternIsIdempotent) {
  FieldTable ft;
  EXPECT_EQ(ft.intern("a"), ft.intern("a"));
  EXPECT_NE(ft.intern("a"), ft.intern("b"));
  EXPECT_EQ(ft.size(), 2u);
}

TEST(FieldTableTest, IdOfUnknownThrows) {
  FieldTable ft;
  EXPECT_THROW(ft.id_of("missing"), std::out_of_range);
  EXPECT_FALSE(ft.try_id_of("missing").has_value());
}

TEST(PacketTest, FieldsStartZeroed) {
  Packet p(4);
  for (FieldId i = 0; i < 4; ++i) EXPECT_EQ(p.get(i), 0);
}

TEST(PacketTest, EqualityIsValueBased) {
  Packet a(2), b(2);
  EXPECT_EQ(a, b);
  a.set(1, 5);
  EXPECT_NE(a, b);
  b.set(1, 5);
  EXPECT_EQ(a, b);
}

TEST(StateVarTest, ScalarLoadStore) {
  StateVar v(1, /*scalar=*/true, 42);
  EXPECT_EQ(v.load_scalar(), 42);
  v.store_scalar(-7);
  EXPECT_EQ(v.load_scalar(), -7);
}

TEST(StateVarTest, ArrayInitializerFillsAllCells) {
  StateVar v(8, /*scalar=*/false, 3);
  for (Value i = 0; i < 8; ++i) EXPECT_EQ(v.load(i), 3);
}

TEST(StateVarTest, OutOfRangeIndexWraps) {
  StateVar v(8, false);
  v.store(9, 5);  // 9 mod 8 == 1
  EXPECT_EQ(v.load(1), 5);
  v.store(-1, 7);  // interpreted as unsigned, wraps deterministically
  EXPECT_EQ(v.load(-1), 7);
}

TEST(StateStoreTest, DeclareAndAccess) {
  StateStore s;
  s.declare("x", 1, true, 10);
  s.declare("arr", 16, false);
  EXPECT_TRUE(s.contains("x"));
  EXPECT_FALSE(s.contains("y"));
  EXPECT_EQ(s.var("x").load_scalar(), 10);
  EXPECT_EQ(s.var("arr").size(), 16u);
  EXPECT_THROW(s.var("y"), std::out_of_range);
}

// restore() guards every migration and reshard in the repo: a snapshot whose
// shape differs in ANY way — missing var, extra var, different cell count,
// scalar flag flipped — must throw and leave the target store byte-for-byte
// untouched, because a half-applied restore would silently corrupt a slot.
TEST(StateStoreTest, RestoreRejectsShapeMismatchAndLeavesStoreUntouched) {
  StateStore target;
  target.declare("x", 1, true, 10);
  target.declare("arr", 4, false);
  target.var("arr").store(2, -7);
  const std::uint64_t gen_before = target.generation();

  StateStore missing_var;
  missing_var.declare("x", 1, true);

  StateStore extra_var;
  extra_var.declare("x", 1, true);
  extra_var.declare("arr", 4, false);
  extra_var.declare("stowaway", 1, true);

  StateStore wrong_size;
  wrong_size.declare("x", 1, true);
  wrong_size.declare("arr", 8, false);

  StateStore wrong_scalar;
  wrong_scalar.declare("x", 1, false);
  wrong_scalar.declare("arr", 4, false);

  for (const StateStore* bad :
       {&missing_var, &extra_var, &wrong_size, &wrong_scalar}) {
    EXPECT_THROW(target.restore(*bad), std::invalid_argument);
    EXPECT_EQ(target.var("x").load_scalar(), 10);
    EXPECT_EQ(target.var("arr").load(2), -7);
    EXPECT_FALSE(target.contains("stowaway"));
    EXPECT_EQ(target.generation(), gen_before)
        << "a rejected restore must not bump the generation";
  }

  // Same shape with different values is exactly what restore is for.
  StateStore good;
  good.declare("x", 1, true, 99);
  good.declare("arr", 4, false);
  EXPECT_NO_THROW(target.restore(good));
  EXPECT_EQ(target.var("x").load_scalar(), 99);
  EXPECT_EQ(target.var("arr").load(2), 0);
  EXPECT_NE(target.generation(), gen_before);
}

// ---- pipeline simulation ------------------------------------------------------

// A machine whose single stateful op counts packets (c = c + 1, publishing
// the new value into `count`) in the first of `stages` stages; the rest are
// empty.  Built with the CompiledPipeline builder the lowering pass uses, and
// used to verify that overlapped execution is serializable.
Machine make_counter_machine(std::size_t stages) {
  FieldTable ft;
  ft.intern("seq");
  const FieldId f_count = ft.intern("count");
  auto kernel = std::make_shared<CompiledPipeline>();
  kernel->begin_stage();
  StatefulOp counter;
  counter.num_states = 1;
  counter.slots[0].var = kernel->intern_state("c");
  counter.arms[0][0].mode = KArm::kAdd;
  counter.arms[0][0].src1 = KRef::constant(1);
  kernel->add_stateful(counter,
                       {{static_cast<std::uint32_t>(f_count), 0, true}});
  for (std::size_t s = 1; s < stages; ++s) kernel->begin_stage();
  kernel->seal(ft.size());

  Machine m(MachineSpec{"test", "RAW", stages, 300, 10}, std::move(ft));
  m.state().declare("c", 1, true, 0);
  m.set_kernel(std::move(kernel));
  return m;
}

TEST(PipelineSimTest, OnePacketPerCycleAndFullOverlap) {
  Machine m = make_counter_machine(4);
  PipelineSim sim(m);
  for (int i = 0; i < 10; ++i) sim.enqueue(Packet(m.fields().size()));
  sim.drain();
  // 10 packets through a 4-stage pipeline: first exits after 5 ticks
  // (enter+4 moves in this model), total = packets + depth.
  EXPECT_EQ(sim.stats().packets_out, 10u);
  EXPECT_EQ(sim.stats().cycles, 10u + 4u);
}

TEST(PipelineSimTest, PacketsExitInOrderWithSequentialState) {
  Machine m = make_counter_machine(3);
  PipelineSim sim(m);
  for (int i = 0; i < 50; ++i) sim.enqueue(Packet(m.fields().size()));
  sim.drain();
  ASSERT_EQ(sim.egress().size(), 50u);
  const FieldId f_count = m.fields().id_of("count");
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(sim.egress()[static_cast<std::size_t>(i)].get(f_count), i + 1);
}

TEST(PipelineSimTest, ProcessEquivalentToSim) {
  Machine m1 = make_counter_machine(4);
  Machine m2 = make_counter_machine(4);
  PipelineSim sim(m1);
  std::vector<Packet> direct;
  for (int i = 0; i < 20; ++i) {
    sim.enqueue(Packet(m1.fields().size()));
    direct.push_back(m2.process(Packet(m2.fields().size())));
  }
  sim.drain();
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(sim.egress()[static_cast<std::size_t>(i)],
              direct[static_cast<std::size_t>(i)]);
  EXPECT_EQ(m1.state(), m2.state());
}

TEST(PipelineSimTest, BusyReflectsInFlightPackets) {
  Machine m = make_counter_machine(3);
  PipelineSim sim(m);
  EXPECT_FALSE(sim.busy());
  sim.enqueue(Packet(m.fields().size()));
  sim.tick();
  EXPECT_TRUE(sim.busy());
  sim.drain();
  EXPECT_FALSE(sim.busy());
}

TEST(PipelineSimTest, BackToBackPacketsTouchStateEveryCycle) {
  // The atom's read-modify-write must be visible to the immediately next
  // packet — the core line-rate requirement of §2.3.
  Machine m = make_counter_machine(1);
  PipelineSim sim(m);
  sim.enqueue(Packet(m.fields().size()));
  sim.enqueue(Packet(m.fields().size()));
  sim.tick();  // packet A in stage 0
  sim.tick();  // packet A out, packet B in stage 0
  sim.tick();
  ASSERT_EQ(sim.egress().size(), 2u);
  const FieldId f_count = m.fields().id_of("count");
  EXPECT_EQ(sim.egress()[0].get(f_count), 1);
  EXPECT_EQ(sim.egress()[1].get(f_count), 2);
}

TEST(MachineTest, AtomAndStageCounts) {
  Machine m = make_counter_machine(4);
  EXPECT_EQ(m.num_stages(), 4u);
  EXPECT_EQ(m.num_atoms(), 1u);
  EXPECT_EQ(m.max_atoms_per_stage(), 1u);
}

}  // namespace
}  // namespace banzai
